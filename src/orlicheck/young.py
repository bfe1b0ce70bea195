"""Young functions as first-class values.

A Young function is a continuous, strictly increasing, convex
Phi: [0, oo) -> [0, oo) with Phi(0) = 0, Phi(t)/t -> 0 at 0 and
t/Phi(t) -> 0 at infinity.  Instances carry a paired evaluator
(forward, inverse), both vectorised over numpy arrays, plus an
overflow-safe log-domain inverse used by the improper-integral machinery.

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
tabulated    monotone piecewise-linear interpolation of breakpoints.

Checkers report worst-case margins (ConditionReport) rather than raising, so
negative controls can be exercised on the same code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .numerics import bisect_increasing, newton_monotone
from .reports import ConditionReport, VerificationReport

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
    "YoungValidation",
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


def _wrap(fn: Callable[[np.ndarray], np.ndarray]) -> Callable:
    """Make an array kernel accept scalars and arbitrary shapes."""

    def wrapped(t):
        arr = np.asarray(t, dtype=float)
        flat = arr.reshape(-1) if arr.ndim != 1 else arr
        out = fn(flat)
        if arr.ndim == 0:
            return float(out[0])
        return out.reshape(arr.shape)

    return wrapped


@dataclass(frozen=True)
class YoungFunction:
    """Paired evaluator (Phi, Phi^{-1}) with construction metadata.

    ``domain_hint`` is the argument interval on which the forward map is a
    closed form; outside it the forward direction falls back to safeguarded
    numeric inversion of the closed-form inverse (or vice versa).
    ``log_inverse(y)`` returns ln Phi^{-1}(e^y) and stays finite for |y| far
    beyond float range of e^y, which the integral-condition checks require.
    """

    kind: str
    params: dict
    domain_hint: tuple[float, float]
    _forward: Callable = field(repr=False)
    _inverse: Callable = field(repr=False)
    _log_inverse: Callable = field(repr=False)
    log_inverse_breaks: tuple[float, ...] = ()

    def forward(self, t):
        return self._forward(t)

    def __call__(self, t):
        return self._forward(t)

    def inverse(self, u):
        return self._inverse(u)

    def log_inverse(self, y):
        return self._log_inverse(y)

    def __repr__(self) -> str:  # params echo for report provenance
        inner = ", ".join(f"{k}={v:.6g}" for k, v in self.params.items()
                          if isinstance(v, (int, float)))
        return f"YoungFunction({self.kind}, {inner})"


def _check_nonnegative(arr: np.ndarray, what: str) -> None:
    if not np.all(arr >= 0):
        raise YoungFunctionError(f"{what} must be >= 0 and not NaN")


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
        _check_nonnegative(t, "argument of Phi")
        return t ** p

    def inv(u):
        _check_nonnegative(u, "argument of Phi^{-1}")
        return u ** (1.0 / p)

    def log_inv(y):
        return np.asarray(y, dtype=float) / p

    return YoungFunction("power", {"p": p}, (0.0, math.inf),
                         _wrap(fwd), _wrap(inv), _wrap(log_inv))


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

    def fwd(t):
        _check_nonnegative(t, "argument of Phi")
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
        _check_nonnegative(u, "argument of Phi^{-1}")
        out = np.zeros_like(u)
        big = u > phi_switch
        if big.any():
            out[big] = switch + (u[big] - phi_switch) / slope
        small = (u > 0) & ~big
        if small.any():
            # solve p0*y - gamma*ln(-y) = ln u for y = ln t <= ln switch
            target = np.log(u[small])

            def r_of_y(y):
                return p0 * y - gamma * np.log(-y)

            lo = np.minimum(target / p0, log_switch) - 1.0
            for _ in range(200):
                bad = r_of_y(lo) > target
                if not bad.any():
                    break
                lo = np.where(bad, 2.0 * lo, lo)
            hi = np.full_like(target, log_switch)
            y = bisect_increasing(r_of_y, target, lo, hi)
            out[small] = np.exp(y)
        return out

    def log_inv(y):
        y = np.asarray(y, dtype=float)
        out = np.empty_like(y)
        big = y > math.log(phi_switch)
        if big.any():
            # x = (u - phi_switch + slope*switch)/slope, stable for huge u;
            # slope*switch - phi_switch >= 0 since p0 >= 1
            yb = y[big]
            out[big] = yb - math.log(slope) + np.log1p(
                (slope * switch - phi_switch) * np.exp(-yb))
        if (~big).any():
            out[~big] = np.log(inv(np.exp(y[~big])))
        return out

    return YoungFunction("logpower", {"p0": p0, "gamma": gamma, "switch": switch},
                         (0.0, switch), _wrap(fwd), _wrap(inv), _wrap(log_inv),
                         log_inverse_breaks=(math.log(phi_switch),))


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
        y = np.asarray(y, dtype=float)
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
        _check_nonnegative(u, "argument of Phi^{-1}")
        out = np.zeros_like(u)
        pos = u > 0
        if pos.any():
            out[pos] = np.exp(log_inv(np.log(u[pos])))
        mid = (u >= 1.0 / r) & (u < r)
        if mid.any():
            out[mid] = p * u[mid] + q
        return out

    def fwd(t):
        _check_nonnegative(t, "argument of Phi")
        out = np.zeros_like(t)
        mid = (t >= t1) & (t < t2)
        if mid.any():
            out[mid] = (t[mid] - q) / p
        low = (t > 0) & (t < t1)
        if low.any():
            # solve -2w + alpha*w/ln(w) = ln t for w = ln(1/sqrt(u))
            z = np.log(t[low])
            h = lambda w: -2.0 * w + alpha * w / np.log(w) - z
            hp = lambda w: -2.0 + alpha * (np.log(w) - 1.0) / np.log(w) ** 2
            w0 = np.maximum(-0.5 * z, E2)
            w = newton_monotone(h, hp, w0, lower=1.05)
            out[low] = np.exp(-2.0 * w)
        high = t >= t2
        if high.any():
            # solve 2v - alpha*v/ln(v) = ln t for v = ln(sqrt(u))
            z = np.log(t[high])
            h = lambda v: 2.0 * v - alpha * v / np.log(v) - z
            hp = lambda v: 2.0 - alpha * (np.log(v) - 1.0) / np.log(v) ** 2
            v0 = np.maximum(0.5 * z, E2)
            v = newton_monotone(h, hp, v0, lower=1.05)
            out[high] = np.exp(2.0 * v)
        return out

    params = {"alpha": alpha, "r": r, "p": p, "q": q}
    return YoungFunction("section7", params, (t1, t2),
                         _wrap(fwd), _wrap(inv), _wrap(log_inv),
                         log_inverse_breaks=(-log_r, log_r))


# ---------------------------------------------------------------------------
# tabulated
# ---------------------------------------------------------------------------

def make_tabulated(points: Iterable[Sequence[float]]) -> YoungFunction:
    """Monotone piecewise-linear Phi through (t_i, u_i) breakpoints.

    A (0, 0) anchor is prepended if absent; beyond the last breakpoint both
    directions extrapolate with the final segment slope.
    """
    pts = sorted((float(t), float(u)) for t, u in points)
    if not pts:
        raise YoungFunctionError("tabulated kind needs at least one breakpoint")
    if pts[0] != (0.0, 0.0):
        pts.insert(0, (0.0, 0.0))
    ts = np.array([t for t, _ in pts])
    us = np.array([u for _, u in pts])
    if np.any(np.diff(ts) <= 0) or np.any(np.diff(us) <= 0):
        raise YoungFunctionError("tabulated breakpoints must be strictly increasing")
    end_slope = (us[-1] - us[-2]) / (ts[-1] - ts[-2])

    def interp(x, xs, ys, slope):
        out = np.interp(x, xs, ys)
        beyond = x > xs[-1]
        if beyond.any():
            out[beyond] = ys[-1] + slope * (x[beyond] - xs[-1])
        return out

    def fwd(t):
        _check_nonnegative(t, "argument of Phi")
        return interp(t, ts, us, end_slope)

    def inv(u):
        _check_nonnegative(u, "argument of Phi^{-1}")
        return interp(u, us, ts, 1.0 / end_slope)

    def log_inv(y):
        y = np.asarray(y, dtype=float)
        return np.log(inv(np.exp(np.minimum(y, 690.0))))

    return YoungFunction("tabulated", {"points": tuple(map(tuple, pts))},
                         (0.0, float(ts[-1])), _wrap(fwd), _wrap(inv),
                         _wrap(log_inv))


# ---------------------------------------------------------------------------
# config round-trip (CLI file format)
# ---------------------------------------------------------------------------

_MAKERS = {
    "power": lambda params: make_power(params["p"]),
    "logpower": lambda params: make_logpower(
        params["p0"], params["gamma"], params.get("switch", 0.5)),
    "section7": lambda params: make_section7(params["alpha"]),
    "tabulated": lambda params: make_tabulated(params["points"]),
}


def young_from_config(config: dict) -> YoungFunction:
    """Build from ``{"kind": ..., "params": {...}}``."""
    kind = config.get("kind")
    if kind not in _MAKERS:
        raise YoungFunctionError(f"unknown Young function kind: {kind!r}")
    return _MAKERS[kind](config.get("params", {}))


def young_to_config(phi: YoungFunction) -> dict:
    keep = {
        "power": ("p",),
        "logpower": ("p0", "gamma", "switch"),
        "section7": ("alpha",),
        "tabulated": ("points",),
    }[phi.kind]
    return {"kind": phi.kind,
            "params": {k: phi.params[k] for k in keep}}


# ---------------------------------------------------------------------------
# structural validation
# ---------------------------------------------------------------------------

@dataclass
class YoungValidation:
    roundtrip_max_rel: float
    min_slope_increment: float
    strictly_increasing: bool
    small_arg_ratio: float
    passed: bool


def validate(phi: YoungFunction, *, u_lo: float = 1e-6, u_hi: float = 1e6,
             n: int = 1000) -> YoungValidation:
    """Grid diagnostics: inverse round-trip, convexity, monotonicity.

    Convexity is measured scale-free as the minimum relative increment of
    consecutive chord slopes on a geometric grid (>= -1e-12 for convex).
    The small-argument quantity Phi(1e-8)/1e-8 is reported untested: kinds of
    log type approach zero too slowly for a fixed threshold to be meaningful.
    """
    u = np.geomspace(u_lo, u_hi, n)
    back = phi(phi.inverse(u))
    roundtrip = float(np.max(np.abs(back / u - 1.0)))

    t = np.geomspace(1e-6, 1e6, n)
    vals = phi(t)
    slopes = np.diff(vals) / np.diff(t)
    increments = np.diff(slopes) / np.maximum(slopes[1:], 1e-300)
    min_inc = float(np.min(increments))
    increasing = bool(np.all(np.diff(vals) > 0))
    small_ratio = float(phi(1e-8) / 1e-8)

    passed = roundtrip <= 1e-9 and min_inc >= -1e-12 and increasing
    return YoungValidation(roundtrip, min_inc, increasing, small_ratio, passed)


# ---------------------------------------------------------------------------
# condition checkers
# ---------------------------------------------------------------------------

def check_sqrt_concavity(phi: YoungFunction,
                         grid: Sequence[float]) -> ConditionReport:
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
    return ConditionReport(
        condition_id="sqrt-concavity",
        margin=margin,
        witness=(float(a[i]), float(b[i])),
        passed=margin >= -1e-12,
        grid_size=len(g),
        details={"tolerance": "relative midpoint defect >= -1e-12"},
    )


def check_supermultiplicativity(phi: YoungFunction, C: float,
                                pairs: Sequence[tuple[float, float]]
                                ) -> ConditionReport:
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
    return ConditionReport(
        condition_id="supermultiplicativity",
        margin=margin,
        witness=(float(pa[i]), float(pb[i])),
        passed=margin >= -1e-9 * scale,
        grid_size=len(pairs),
        details={"C": float(C),
                 "min_relative_margin": float(np.min(margins / np.maximum(rhs, 1e-300)))},
    )


def check_inverse_product(phi: YoungFunction, C: float,
                          x_grid: Sequence[float]) -> ConditionReport:
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
    return ConditionReport(
        condition_id="inverse-product",
        margin=margin,
        witness=float(x[i]),
        passed=margin >= -1e-12,
        grid_size=len(x),
        details={"C": float(C)},
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
        inputs={"phi": repr(phi), "C": float(C), "n_pairs": len(pairs)},
        quantities={"n_hypothesis_true": n_hyp,
                    "n_violations": int(np.count_nonzero(violated)),
                    "worst_conclusion_margin_rel": worst},
        margin=worst,
        passed=not violated.any(),
        tolerance="relative conclusion margin >= -1e-9 when hypothesis holds",
    )


# ---------------------------------------------------------------------------
# deterministic sample-pair generators
# ---------------------------------------------------------------------------

def supermultiplicativity_pairs(seed: int, n: int, *, a_min: float = 1e-4,
                                ab_max: float = 1e6) -> list[tuple[float, float]]:
    """Log-uniform pairs satisfying 0 < a < 1 <= ab < b."""
    rng = np.random.default_rng(seed)
    a = np.exp(rng.uniform(math.log(a_min), -1e-9, n))
    ab = np.exp(rng.uniform(0.0, math.log(ab_max), n))
    b = ab / a
    return list(zip(a.tolist(), b.tolist()))


def transfer_pairs(phi: YoungFunction, seed: int, n: int, *,
                   span: float = 1e6) -> list[tuple[float, float]]:
    """Pairs (x, y) with 0 < x < Phi(1) < y and Phi^{-1}(x)Phi^{-1}(y) >= 1."""
    rng = np.random.default_rng(seed)
    phi1 = float(phi(1.0))
    out: list[tuple[float, float]] = []
    while len(out) < n:
        x = phi1 * np.exp(rng.uniform(math.log(1e-6), -1e-9))
        y = phi1 * np.exp(rng.uniform(1e-9, math.log(span)))
        if float(phi.inverse(x)) * float(phi.inverse(y)) >= 1.0:
            out.append((float(x), float(y)))
    return out
