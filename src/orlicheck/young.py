"""Young functions as first-class values.

A Young function is a continuous, strictly increasing, convex
Phi: [0, oo) -> [0, oo) with Phi(0) = 0, Phi(t)/t -> 0 at 0 and
t/Phi(t) -> 0 at infinity.  Each of its three maps, forward, inverse and an
overflow-safe log-domain inverse for the improper-integral machinery, is
reached through one front, a YoungFunction method that checks and shapes
the argument (see there); each kind supplies bare kernels that map a flat
1-D float array to one of the same length.

Supported kinds
---------------
power        Phi(t) = t^p, p > 1.
logpower     Phi(t) = t^p0 / |ln t|^gamma on (0, 1/2], extended past 1/2 by
             the tangent line at 1/2 (value and one-sided slope match, so the
             splice stays convex and continuous).  Orlicz sequence-space
             membership of bounded normalised sequences depends only on small
             arguments, so any convex extension gives the same space up to
             equivalence.
section7     piecewise inverse
                 Phi^{-1}(t) = t * exp(+a * ln(1/sqrt(t)) / lnln(1/sqrt(t)))   t < 1/r
                 Phi^{-1}(t) = p*t + q                                         1/r <= t < r
                 Phi^{-1}(t) = t * exp(-a * ln(sqrt(t)) / lnln(sqrt(t)))       t >= r
             with r = exp(2 e^2) and p, q chosen so Phi^{-1} is continuous.
             Near zero this dominates every t^p with p > 1 while keeping
             Phi^{-1}(x) * Phi^{-1}(1/x) = 1 for large x.
tabulated    convex piecewise-linear interpolation of breakpoints.

Checkers return a VerificationReport with the worst-case margin rather than
raising, so negative controls can be exercised on the same code path.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .numerics import newton_monotone
from .reports import VerificationReport

__all__ = [
    "YoungFunction",
    "YoungFunctionError",
    "make_power",
    "make_logpower",
    "make_section7",
    "make_tabulated",
    "young_from_config",
    "young_to_config",
    "validate",
    "check_sqrt_concavity",
    "check_supermultiplicativity",
    "check_inverse_product",
    "check_multiplicativity_transfer",
    "supermultiplicativity_pairs",
    "transfer_pairs",
    "SECTION7_R",
]

E2 = math.e ** 2
SECTION7_LOG_R = 2.0 * E2          # ln r
SECTION7_R = math.exp(SECTION7_LOG_R)


class YoungFunctionError(ValueError):
    """Constructor arguments violate the Young-function contract."""


@dataclass(frozen=True)
class YoungFunction:
    """Paired evaluator (Phi, Phi^{-1}) with construction metadata.

    ``forward`` (or ``phi(x)``), ``inverse`` and ``log_inverse`` front the
    kernels ``_forward``, ``_inverse`` and ``_log_inverse``: each takes
    ``np.asarray(x, dtype=float)``, raises YoungFunctionError on NaN (forward
    and inverse also on a negative entry), hands the kernel x flat (x itself
    if 1-D), and returns a float for a scalar x, else x's shape.
    ``log_inverse(y)`` = ln Phi^{-1}(e^y) accepts negative and infinite y and
    stays finite for |y| far beyond float range of e^y, which the
    integral-condition checks require.  ``affine_pieces`` lists
    closed intervals (lo, hi), hi possibly inf, on each of which Phi is
    affine; it is a property of Phi set by its maker, and lets a Luxemburg
    root whose scaled data lie on one piece be taken in closed form.
    """

    kind: str
    params: dict
    _forward: Callable = field(repr=False)
    _inverse: Callable = field(repr=False)
    _log_inverse: Callable = field(repr=False)
    log_inverse_breaks: tuple[float, ...] = ()
    affine_pieces: tuple[tuple[float, float], ...] = ()

    def forward(self, t):
        return _front(self._forward, t, 0.0, "Phi must be >= 0 and not NaN")

    __call__ = forward

    def inverse(self, u):
        return _front(self._inverse, u, 0.0,
                      "Phi^{-1} must be >= 0 and not NaN")

    def log_inverse(self, y):
        return _front(self._log_inverse, y, -math.inf,
                      "Phi^{-1} must not be NaN")

    @property
    def is_square(self) -> bool:
        """Phi(t) = t^2, where Luxemburg norms are L2 norms (Parseval)."""
        return self.kind == "power" and self.params.get("p") == 2.0

    def __repr__(self) -> str:  # params echo for report provenance
        inner = ", ".join(f"{k}={v:.6g}" for k, v in self.params.items()
                          if isinstance(v, (int, float)))
        return f"YoungFunction({self.kind}, {inner})"


def _front(kernel: Callable[[np.ndarray], np.ndarray], x, least: float,
           what: str):
    """kernel(x) for x of any shape, once no entry is NaN or below least."""
    arr = np.asarray(x, dtype=float)
    flat = arr if arr.ndim == 1 else arr.reshape(-1)
    # min propagates NaN, so one reduction screens both
    if flat.size and not flat.min() >= least:
        raise YoungFunctionError(f"argument of {what}")
    out = kernel(flat)
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


# ---------------------------------------------------------------------------
# power
# ---------------------------------------------------------------------------

def make_power(p: float) -> YoungFunction:
    """Phi(t) = t^p with exact inverse u^(1/p); requires p > 1.

    p <= 1 is rejected: Phi(t)/t -> 0 at zero fails and the function is not
    strictly convex.
    """
    p = float(p)
    if not p > 1.0:
        raise YoungFunctionError("power kind requires p > 1")

    def fwd(t):
        return t ** p

    def inv(u):
        return u ** (1.0 / p)

    def log_inv(y):
        return y / p

    return YoungFunction("power", {"p": p}, fwd, inv, log_inv)


# ---------------------------------------------------------------------------
# logpower
# ---------------------------------------------------------------------------

def make_logpower(p0: float, gamma: float, switch: float = 0.5) -> YoungFunction:
    """Phi(t) = t^p0 / |ln t|^gamma on (0, switch], tangent line beyond.

    Requires p0 >= 1 and gamma > 0; switch must stay below 1 so the closed
    form never meets the |ln t| = 0 singularity.
    """
    p0, gamma, switch = float(p0), float(gamma), float(switch)
    if p0 < 1.0:
        raise YoungFunctionError("logpower kind requires p0 >= 1")
    if gamma <= 0.0:
        raise YoungFunctionError("logpower kind requires gamma > 0")
    if not 0.0 < switch < 1.0:
        raise YoungFunctionError("logpower switch must lie in (0, 1)")

    ls = -math.log(switch)                     # |ln switch| > 0
    phi_switch = switch ** p0 * ls ** (-gamma)
    slope = switch ** (p0 - 1.0) * ls ** (-gamma) * (p0 + gamma / ls)
    log_switch = math.log(switch)

    def log_small(ly):
        # solve r(y) = p0*y - gamma*ln(-y) = ly for y = ln t, from
        # y = ln switch: r is increasing and convex, so Newton started right
        # of the root falls monotonically onto it
        return newton_monotone(lambda y: p0 * y - gamma * np.log(-y) - ly,
                               lambda y: p0 - gamma / y,
                               np.full_like(ly, log_switch))

    def fwd(t):
        out = np.zeros_like(t)
        small = (t > 0) & (t <= switch)
        if small.any():
            ts = t[small]
            out[small] = ts ** p0 * (-np.log(ts)) ** (-gamma)
        big = t > switch
        if big.any():
            out[big] = phi_switch + slope * (t[big] - switch)
        return out

    def inv(u):
        out = np.zeros_like(u)
        big = u > phi_switch
        if big.any():
            out[big] = switch + (u[big] - phi_switch) / slope
        small = (u > 0) & ~big
        if small.any():
            out[small] = np.exp(log_small(np.log(u[small])))
        return out

    def log_inv(y):
        out = np.full_like(y, -np.inf)      # ln Phi^{-1}(0)
        big = y > math.log(phi_switch)
        if big.any():
            # x = (u - phi_switch + slope*switch)/slope, stable for huge u;
            # slope*switch - phi_switch >= 0 since p0 >= 1
            yb = y[big]
            out[big] = yb - math.log(slope) + np.log1p(
                (slope * switch - phi_switch) * np.exp(-yb))
        small = ~big & ~np.isneginf(y)
        if small.any():
            out[small] = log_small(y[small])
        return out

    return YoungFunction("logpower", {"p0": p0, "gamma": gamma, "switch": switch},
                         fwd, inv, log_inv,
                         log_inverse_breaks=(math.log(phi_switch),),
                         affine_pieces=((switch, math.inf),))


# ---------------------------------------------------------------------------
# section7
# ---------------------------------------------------------------------------

def _section7_constants(alpha: float) -> tuple[float, float]:
    """Continuity coefficients (p, q) of the middle affine branch.

    q is evaluated as 2*sinh(alpha*e^2/2)/(r - 1/r); the direct difference
    r*e^{-alpha e^2/2} - p*r cancels catastrophically.
    """
    r = SECTION7_R
    ehalf = alpha * E2 / 2.0
    p = (r * math.exp(-ehalf) - math.exp(ehalf) / r) / (r - 1.0 / r)
    q = 2.0 * math.sinh(ehalf) / (r - 1.0 / r)
    return p, q


def make_section7(alpha: float) -> YoungFunction:
    """Piecewise log-perturbed-identity profile with parameter 0 < alpha < e^{-2}.

    The alpha bound keeps alpha * ln(r)/lnln(r) <= 1 for r = exp(2 e^2), which
    the multiplicativity estimates need.  The inverse is closed form on all
    three branches; the forward map inverts it by a safeguarded Newton
    iteration in the log domain (the middle branch is affine, hence exact).
    The log inverse evaluates an array that lies wholly on the high branch,
    as the embedding conditions' far decades do, in place and without
    masks, in the masked route's operation order, so bit for bit alike.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < math.exp(-2.0):
        raise YoungFunctionError("section7 kind requires 0 < alpha < e^{-2}")

    r = SECTION7_R
    log_r = SECTION7_LOG_R
    p, q = _section7_constants(alpha)
    t1 = p / r + q          # Phi^{-1}(1/r), start of the affine branch
    t2 = p * r + q          # Phi^{-1}(r), end of the affine branch

    def log_inv(y):
        if y.size and y.min() >= log_r:     # all high: in place, no masks
            v = 0.5 * y
            lv = np.log(v)
            v *= alpha
            v /= lv
            return np.subtract(y, v, out=v)
        out = np.empty_like(y)
        low = y < -log_r
        high = y >= log_r
        mid = ~(low | high)
        if low.any():
            w = -0.5 * y[low]
            out[low] = y[low] + alpha * w / np.log(w)
        if mid.any():
            out[mid] = np.log(p * np.exp(y[mid]) + q)
        if high.any():
            v = 0.5 * y[high]
            out[high] = y[high] - alpha * v / np.log(v)
        return out

    def inv(u):
        out = np.zeros_like(u)
        pos = u > 0
        if pos.any():
            out[pos] = np.exp(log_inv(np.log(u[pos])))
        mid = (u >= 1.0 / r) & (u < r)
        if mid.any():
            out[mid] = p * u[mid] + q
        return out

    def fwd(t):
        out = np.zeros_like(t)
        mid = (t >= t1) & (t < t2)
        if mid.any():
            out[mid] = (t[mid] - q) / p
        outer = (t > 0) & ~mid
        if outer.any():
            # both outer branches solve 2v - alpha*v/ln(v) = |ln t| for
            # v = |ln sqrt(u)|, and u = exp(+-2v) with the sign of ln t
            z = np.log(t[outer])
            a = np.abs(z)
            h = lambda v: 2.0 * v - alpha * v / np.log(v) - a
            hp = lambda v: 2.0 - alpha * (np.log(v) - 1.0) / np.log(v) ** 2
            v = newton_monotone(h, hp, np.maximum(0.5 * a, E2), lower=1.05)
            out[outer] = np.exp(np.copysign(2.0 * v, z))
        return out

    params = {"alpha": alpha, "r": r, "p": p, "q": q}
    return YoungFunction("section7", params, fwd, inv, log_inv,
                         log_inverse_breaks=(-log_r, log_r),
                         affine_pieces=((t1, t2),))


# ---------------------------------------------------------------------------
# tabulated
# ---------------------------------------------------------------------------

def make_tabulated(points: Iterable[Sequence[float]]) -> YoungFunction:
    """Convex piecewise-linear Phi through (t_i, u_i) breakpoints.

    A (0, 0) anchor is prepended if absent; beyond the last breakpoint both
    directions extrapolate with the final segment slope.  The log inverse is
    closed form on the first segment and past the last one, so it stays
    finite for every finite y; its kinks, the logs of the interior
    breakpoint values u_1 ... u_{n-1}, are its ``log_inverse_breaks`` (the
    last segment runs on past u_n, so there is none there).  Raises
    YoungFunctionError unless the segment slopes, the anchor segment
    included, are nondecreasing up to the rounding of their differences.
    """
    pts = sorted((float(t), float(u)) for t, u in points)
    if not pts:
        raise YoungFunctionError("tabulated kind needs at least one breakpoint")
    if pts[0] != (0.0, 0.0):
        pts.insert(0, (0.0, 0.0))
    ts = np.array([t for t, _ in pts])
    us = np.array([u for _, u in pts])
    du, dt = np.diff(us), np.diff(ts)
    if np.any(dt <= 0) or np.any(du <= 0):
        raise YoungFunctionError("tabulated breakpoints must be strictly increasing")
    slopes = du / dt
    # a difference of two doubles is off by up to eps times their sum, so
    # breakpoints on one line can give slopes that fall by this much
    eps = np.finfo(float).eps
    err = 4.0 * eps * slopes * ((us[1:] + us[:-1]) / du
                                + (ts[1:] + ts[:-1]) / dt)
    falls = np.flatnonzero(np.diff(slopes) < -(err[1:] + err[:-1]))
    if falls.size:
        i = int(falls[0])
        raise YoungFunctionError(
            f"tabulated Phi is not convex: slope falls from {slopes[i]:g} to "
            f"{slopes[i + 1]:g} at breakpoint {pts[i + 1]}")
    end_slope = slopes[-1]
    # the last segment's line is -offset <= 0 at t = 0, by convexity
    offset = end_slope * ts[-1] - us[-1]
    log_u1, log_un = math.log(us[1]), math.log(us[-1])

    def interp(x, xs, ys, slope):
        out = np.interp(x, xs, ys)
        beyond = x > xs[-1]
        if beyond.any():
            out[beyond] = ys[-1] + slope * (x[beyond] - xs[-1])
        return out

    def fwd(t):
        return interp(t, ts, us, end_slope)

    def inv(u):
        return interp(u, us, ts, 1.0 / end_slope)

    def log_inv(y):
        out = np.empty_like(y)
        low, high = y < log_u1, y > log_un
        out[low] = y[low] - math.log(slopes[0])
        # Phi^{-1}(u) = (u + offset) / end_slope, in the log of u
        out[high] = y[high] - math.log(end_slope) + np.log1p(
            offset * np.exp(-y[high]))
        mid = ~(low | high)
        out[mid] = np.log(inv(np.exp(y[mid])))
        return out

    ends = ts.tolist()[1:-1] + [math.inf]      # the last segment runs on
    return YoungFunction("tabulated", {"points": tuple(map(tuple, pts))},
                         fwd, inv, log_inv,
                         log_inverse_breaks=tuple(np.log(us[1:-1]).tolist()),
                         affine_pieces=tuple(zip(ts.tolist(), ends)))


# ---------------------------------------------------------------------------
# config round-trip (CLI file format)
# ---------------------------------------------------------------------------

# kind -> (maker, the names of its parameters, which a config uses too)
_KINDS = {
    "power": (make_power, ("p",)),
    "logpower": (make_logpower, ("p0", "gamma", "switch")),
    "section7": (make_section7, ("alpha",)),
    "tabulated": (make_tabulated, ("points",)),
}


def young_from_config(config: dict) -> YoungFunction:
    """Build from ``{"kind": ..., "params": {...}}``.

    An omitted optional parameter takes the maker's default; a missing
    required or an unknown parameter raises YoungFunctionError naming it.
    """
    kind = config.get("kind")
    if kind not in _KINDS:
        raise YoungFunctionError(f"unknown Young function kind: {kind!r}")
    maker = _KINDS[kind][0]
    params = config.get("params", {})
    try:
        inspect.signature(maker).bind(**params)
    except TypeError as exc:    # names the missing or unknown parameter
        raise YoungFunctionError(f"{kind} config: {exc}") from None
    return maker(**params)


def young_to_config(phi: YoungFunction) -> dict:
    return {"kind": phi.kind,
            "params": {k: phi.params[k] for k in _KINDS[phi.kind][1]}}


# ---------------------------------------------------------------------------
# structural validation
# ---------------------------------------------------------------------------

def validate(phi: YoungFunction) -> VerificationReport:
    """Grid diagnostics: inverse round-trip, convexity, monotonicity.

    The round trip Phi(Phi^{-1}(u)) runs over 1000 geometric points of
    [1e-6, 1e6] (relative error <= 1e-9), and the forward checks over 1000
    of t in the same interval.  Convexity is measured scale-free as the
    minimum relative increment of consecutive chord slopes on a geometric
    grid (>= -1e-12 for convex).  The margin is the smaller slack of the
    two thresholds, -inf if Phi is not strictly increasing on the grid.
    """
    u = np.geomspace(1e-6, 1e6, 1000)
    back = phi(phi.inverse(u))
    roundtrip = float(np.max(np.abs(back / u - 1.0)))

    t = np.geomspace(1e-6, 1e6, 1000)
    vals = phi(t)
    slopes = np.diff(vals) / np.diff(t)
    increments = np.diff(slopes) / np.maximum(slopes[1:], 1e-300)
    min_inc = float(np.min(increments))
    increasing = bool(np.all(np.diff(vals) > 0))

    passed = roundtrip <= 1e-9 and min_inc >= -1e-12 and increasing
    margin = min(1e-9 - roundtrip, min_inc + 1e-12) if increasing else -math.inf
    return VerificationReport(
        check_id="young-validation", passed=passed, margin=margin,
        quantities={"roundtrip_max_rel": roundtrip,
                    "min_slope_increment": min_inc,
                    "strictly_increasing": increasing},
        inputs={"phi": repr(phi)},
        tolerance="round trip <= 1e-9 relative, slope increments >= -1e-12, "
                  "strictly increasing")


# ---------------------------------------------------------------------------
# condition checkers
# ---------------------------------------------------------------------------

def check_sqrt_concavity(phi: YoungFunction,
                         grid: Sequence[float]) -> VerificationReport:
    """Midpoint concavity of x -> Phi(sqrt(x)) over adjacent grid pairs.

    Margin is the worst relative value of Phi(sqrt((a+b)/2)) - mean of the
    endpoint values; concavity holds iff it is >= 0 (up to 1e-12 rounding).
    """
    g = np.asarray(sorted(grid), dtype=float)
    a, b = g[:-1], g[1:]
    mid = phi(np.sqrt(0.5 * (a + b)))
    avg = 0.5 * (phi(np.sqrt(a)) + phi(np.sqrt(b)))
    rel = (mid - avg) / np.maximum(avg, 1e-300)
    i = int(np.argmin(rel))
    margin = float(rel[i])
    return VerificationReport(
        check_id="sqrt-concavity",
        passed=margin >= -1e-12,
        margin=margin,
        witness=(float(a[i]), float(b[i])),
        quantities={},
        inputs={"phi": repr(phi), "grid_size": len(g)},
        tolerance="relative midpoint defect >= -1e-12",
    )


def check_supermultiplicativity(phi: YoungFunction, C: float,
                                pairs: Sequence[tuple[float, float]]
                                ) -> VerificationReport:
    """Phi(a) * Phi(b) <= Phi(C*a*b) over sample pairs with 0 < a < 1 <= ab < b.

    Margin is the worst absolute value of Phi(Cab) - Phi(a)Phi(b); the pass
    flag allows 1e-9 relative rounding at the witness scale.
    """
    if C < 1.0:
        raise YoungFunctionError("supermultiplicativity constant C must be >= 1")
    pa = np.array([a for a, _ in pairs], dtype=float)
    pb = np.array([b for _, b in pairs], dtype=float)
    if np.any(~((0 < pa) & (pa < 1) & (1 <= pa * pb) & (pa * pb < pb))):
        raise YoungFunctionError("pairs must satisfy 0 < a < 1 <= ab < b")
    rhs = phi(C * pa * pb)
    lhs = phi(pa) * phi(pb)
    margins = rhs - lhs
    i = int(np.argmin(margins))
    margin = float(margins[i])
    scale = float(max(abs(rhs[i]), 1.0))
    return VerificationReport(
        check_id="supermultiplicativity",
        passed=margin >= -1e-9 * scale,
        margin=margin,
        witness=(float(pa[i]), float(pb[i])),
        quantities={"min_relative_margin":
                    float(np.min(margins / np.maximum(rhs, 1e-300)))},
        inputs={"phi": repr(phi), "C": float(C), "grid_size": len(pairs)},
        tolerance="Phi(Cab) - Phi(a)Phi(b) >= -1e-9 max(Phi(Cab), 1)",
    )


def check_inverse_product(phi: YoungFunction, C: float,
                          x_grid: Sequence[float]) -> VerificationReport:
    """1 <= C * Phi^{-1}(x) * Phi^{-1}(1/x) over a positive grid."""
    if C < 1.0:
        raise YoungFunctionError("inverse-product constant C must be >= 1")
    x = np.asarray(x_grid, dtype=float)
    if np.any(x <= 0):
        raise YoungFunctionError("inverse-product grid must be positive")
    prod = C * phi.inverse(x) * phi.inverse(1.0 / x)
    margins = prod - 1.0
    i = int(np.argmin(margins))
    margin = float(margins[i])
    return VerificationReport(
        check_id="inverse-product",
        passed=margin >= -1e-12,
        margin=margin,
        witness=float(x[i]),
        quantities={},
        inputs={"phi": repr(phi), "C": float(C), "grid_size": len(x)},
        tolerance="C Phi^{-1}(x) Phi^{-1}(1/x) - 1 >= -1e-12",
    )


def check_multiplicativity_transfer(phi: YoungFunction, C: float,
                                    pairs: Sequence[tuple[float, float]]
                                    ) -> VerificationReport:
    """Submultiplicativity of the inverse transfers to the forward map.

    For each admissible (x, y) with 0 < x < Phi(1) < y and
    Phi^{-1}(x) * Phi^{-1}(y) >= 1: whenever
    Phi^{-1}(x*y) <= C * Phi^{-1}(x) * Phi^{-1}(y) holds, then
    Phi(a) * Phi(b) <= Phi(C*a*b) must hold for a = Phi^{-1}(x),
    b = Phi^{-1}(y).  Violations of the implication are counted (none are
    expected for a valid Young function).
    """
    if C < 1.0:
        raise YoungFunctionError("transfer constant C must be >= 1")
    phi1 = float(phi(1.0))
    xs = np.array([x for x, _ in pairs], dtype=float)
    ys = np.array([y for _, y in pairs], dtype=float)
    a = phi.inverse(xs)
    b = phi.inverse(ys)
    ok = (0 < xs) & (xs < phi1) & (phi1 < ys) & (a * b >= 1.0)
    if not ok.all():
        bad = int(np.argmin(ok))
        raise YoungFunctionError(
            f"pair (x={xs[bad]:.6g}, y={ys[bad]:.6g}) violates the "
            "precondition 0 < x < Phi(1) < y, Phi^{-1}(x)Phi^{-1}(y) >= 1")
    hyp = phi.inverse(xs * ys) <= C * a * b * (1.0 + 1e-12)
    concl_margin = phi(C * a * b) - phi(a) * phi(b)
    scale = np.maximum(np.abs(phi(C * a * b)), 1.0)
    violated = hyp & (concl_margin < -1e-9 * scale)
    n_hyp = int(np.count_nonzero(hyp))
    worst = float(np.min((concl_margin / scale)[hyp])) if n_hyp else math.inf
    return VerificationReport(
        check_id="multiplicativity-transfer",
        passed=not violated.any(),
        margin=worst,
        quantities={"n_hypothesis_true": n_hyp,
                    "n_violations": int(np.count_nonzero(violated)),
                    "worst_conclusion_margin_rel": worst},
        inputs={"phi": repr(phi), "C": float(C), "n_pairs": len(pairs)},
        tolerance="relative conclusion margin >= -1e-9 when hypothesis holds",
    )


# ---------------------------------------------------------------------------
# deterministic sample-pair generators
# ---------------------------------------------------------------------------

def supermultiplicativity_pairs(seed: int, n: int) -> list[tuple[float, float]]:
    """Log-uniform pairs satisfying 0 < a < 1 <= ab < b, with a >= 1e-4 and
    ab < 1e6."""
    rng = np.random.default_rng(seed)
    a = np.exp(rng.uniform(math.log(1e-4), -1e-9, n))
    ab = np.exp(rng.uniform(0.0, math.log(1e6), n))
    b = ab / a
    return list(zip(a.tolist(), b.tolist()))


def transfer_pairs(phi: YoungFunction, seed: int,
                   n: int) -> list[tuple[float, float]]:
    """Pairs (x, y) with 0 < x < Phi(1) < y and Phi^{-1}(x)Phi^{-1}(y) >= 1,
    log-uniform within a factor 1e6 of Phi(1) on either side."""
    rng = np.random.default_rng(seed)
    phi1 = float(phi(1.0))
    out: list[tuple[float, float]] = []
    while len(out) < n:
        x = phi1 * np.exp(rng.uniform(math.log(1e-6), -1e-9))
        y = phi1 * np.exp(rng.uniform(1e-9, math.log(1e6)))
        if float(phi.inverse(x)) * float(phi.inverse(y)) >= 1.0:
            out.append((float(x), float(y)))
    return out
