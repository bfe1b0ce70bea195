"""Young functions as first-class values.

A Young function is a continuous, strictly increasing, convex
Phi: [0, oo) -> [0, oo) with Phi(0) = 0, Phi(t)/t -> 0 at 0 and
t/Phi(t) -> 0 at infinity.  Its three maps, forward, inverse and an
overflow-safe log-domain inverse y -> ln Phi^{-1}(e^y) for the
improper-integral machinery, are each reached through one front, a
YoungFunction method that checks and shapes the argument (see there).

Each kind is one table of pieces, declared once by its maker.  Adjacent
pieces meet at a cut, the triple (t, Phi(t), ln Phi(t)), so a cut splits
all three maps at the same place; a piece gives the three maps' formulas
and says whether Phi is affine on it.  The three kernels, the kinks of the
log inverse and the affine intervals all come from that table, so they
cannot disagree.  Every kernel fixes its ends, whatever its formulas would
give there: 0 -> 0 (forward, inverse), -oo -> -oo (log inverse) and
+oo -> +oo (all three).

Supported kinds
---------------
power        one piece: Phi(t) = t^p, p > 1.
logpower     two pieces: Phi(t) = t^p0 / |ln t|^gamma below switch, then the
             tangent line at switch (value and one-sided slope match, so the
             splice stays convex and continuous).  Orlicz sequence-space
             membership of bounded normalised sequences depends only on small
             arguments, so any convex extension gives the same space up to
             equivalence.
section7     three pieces of the inverse
                 Phi^{-1}(t) = t * exp(+a * ln(1/sqrt(t)) / lnln(1/sqrt(t)))   t < 1/r
                 Phi^{-1}(t) = p*t + q                                         1/r <= t < r
                 Phi^{-1}(t) = t * exp(-a * ln(sqrt(t)) / lnln(sqrt(t)))       t >= r
             with r = exp(2 e^2) and p, q chosen so Phi^{-1} is continuous.
             Near zero this dominates every t^p with p > 1 while keeping
             Phi^{-1}(x) * Phi^{-1}(1/x) = 1 for large x.
tabulated    convex piecewise-linear interpolation of breakpoints, one affine
             piece per segment.

Checkers return a VerificationReport with the worst-case margin rather than
raising, so negative controls can be exercised on the same code path.
"""

from __future__ import annotations

import bisect
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
    integral-condition checks require.  The kernels and the two tuples come
    from the maker's piece table (see the module doc): ``log_inverse_breaks``
    holds the ln Phi(t) of its cuts, where quadrature splits its panels, and
    ``affine_pieces`` the closed intervals (lo, hi), hi possibly inf, of its
    affine pieces, where a Luxemburg root whose scaled data lie on one piece
    is taken in closed form.
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
# piece tables, and one for each kind
# ---------------------------------------------------------------------------

def _piecewise(low: float, cuts: Sequence[float],
               fns: Sequence[Callable]) -> Callable:
    """The kernel that applies fns[i] on [cuts[i-1], cuts[i]), the cuts
    increasing from low to inf, and fixes the ends low and inf.

    An array that lies on one piece goes to that piece's formula whole, with
    no masks and no copy.  Otherwise each distinct formula runs once on all
    of its entries, in their order, so pieces that share one (an iterative
    solve) see the batch they would see as one piece.  No formula sees an
    end, and none may write to its argument.
    """
    edges = [*cuts, math.inf]
    bounds = np.array(edges)
    maps = {}
    group = np.array([maps.setdefault(fn, len(maps)) for fn in fns] + [-1])

    def kernel(x):
        if x.size:
            lo, hi = x.min(), x.max()
            if lo > low and hi < math.inf:
                i = bisect.bisect_right(edges, lo)
                if hi < edges[i]:
                    return fns[i](x)
        out = x.copy()
        piece = np.searchsorted(bounds, x, side="right")  # len(fns) at inf
        piece[x == low] = len(fns)
        which = group[piece]
        for g, fn in enumerate(maps):
            on = which == g
            if on.any():
                out[on] = fn(x[on])
        return out

    return kernel


def _young(kind: str, params: dict, cuts: Sequence[tuple[float, float, float]],
           pieces: Sequence[tuple]) -> YoungFunction:
    """The YoungFunction of a piece table: cuts[i] = (t, Phi(t), ln Phi(t))
    closes pieces[i] = (forward, inverse, log inverse, affine) and opens
    pieces[i + 1]."""
    ts, us, ys = np.reshape(cuts, (-1, 3)).T.tolist()
    fwds, invs, logs, affine = zip(*pieces)
    ends = [0.0, *ts, math.inf]
    return YoungFunction(
        kind, params, _piecewise(0.0, ts, fwds), _piecewise(0.0, us, invs),
        _piecewise(-math.inf, ys, logs), log_inverse_breaks=tuple(ys),
        affine_pieces=tuple((lo, hi) for lo, hi, flat
                            in zip(ends, ends[1:], affine) if flat))


def make_power(p: float) -> YoungFunction:
    """Phi(t) = t^p with exact inverse u^(1/p); requires p > 1.

    p <= 1 is rejected: Phi(t)/t -> 0 at zero fails and the function is not
    strictly convex.
    """
    p = float(p)
    if not p > 1.0:
        raise YoungFunctionError("power kind requires p > 1")
    q = 1.0 / p
    return _young("power", {"p": p}, [],
                  [(lambda t: t ** p, lambda u: u ** q, lambda y: y / p,
                    False)])


def make_logpower(p0: float, gamma: float, switch: float = 0.5) -> YoungFunction:
    """Phi(t) = t^p0 / |ln t|^gamma on (0, switch), tangent line from switch.

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

    def log_small(ly):
        # solve r(y) = p0*y - gamma*ln(-y) = ly for y = ln t, from
        # y = ln switch: r is increasing and convex, so Newton started right
        # of the root falls monotonically onto it
        return newton_monotone(lambda y: p0 * y - gamma * np.log(-y) - ly,
                               lambda y: p0 - gamma / y,
                               np.full_like(ly, -ls))

    def log_line(y):
        # x = (u - phi_switch + slope*switch)/slope, stable for huge u;
        # slope*switch - phi_switch >= 0 since p0 >= 1
        return y - math.log(slope) + np.log1p(
            (slope * switch - phi_switch) * np.exp(-y))

    small = (lambda t: t ** p0 * (-np.log(t)) ** (-gamma),
             lambda u: np.exp(log_small(np.log(u))), log_small, False)
    line = (lambda t: phi_switch + slope * (t - switch),
            lambda u: switch + (u - phi_switch) / slope, log_line, True)
    return _young("logpower", {"p0": p0, "gamma": gamma, "switch": switch},
                  [(switch, phi_switch, math.log(phi_switch))], [small, line])


def make_section7(alpha: float) -> YoungFunction:
    """Piecewise log-perturbed-identity profile with parameter 0 < alpha < e^{-2}.

    The alpha bound keeps alpha * ln(r)/lnln(r) <= 1 for r = exp(2 e^2), which
    the multiplicativity estimates need.  The inverse is closed form on all
    three pieces, and on the outer two it goes through the log inverse.  The
    forward map is affine on the middle piece; on both outer pieces it
    inverts the closed form by one safeguarded Newton iteration in the log
    domain.  The high piece's log inverse, which the embedding conditions'
    far decades call on whole arrays, works in place in its result.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < math.exp(-2.0):
        raise YoungFunctionError("section7 kind requires 0 < alpha < e^{-2}")

    r, log_r = SECTION7_R, SECTION7_LOG_R
    # the middle piece p*t + q makes Phi^{-1} continuous; q is taken as
    # 2 sinh(alpha e^2/2)/(r - 1/r), for r e^{-alpha e^2/2} - p r cancels
    ehalf = alpha * E2 / 2.0
    p = (r * math.exp(-ehalf) - math.exp(ehalf) / r) / (r - 1.0 / r)
    q = 2.0 * math.sinh(ehalf) / (r - 1.0 / r)

    def log_low(y):
        w = -0.5 * y
        return y + alpha * w / np.log(w)

    def log_high(y):
        v = 0.5 * y
        lv = np.log(v)
        v *= alpha
        v /= lv
        return np.subtract(y, v, out=v)

    def inv_outer(u):       # phi is bound below, before any call
        return np.exp(phi._log_inverse(np.log(u)))

    def fwd_outer(t):
        # both outer pieces solve 2v - alpha*v/ln(v) = |ln t| for
        # v = |ln sqrt(u)|, and u = exp(+-2v) with the sign of ln t
        z = np.log(t)
        a = np.abs(z)
        h = lambda v: 2.0 * v - alpha * v / np.log(v) - a
        hp = lambda v: 2.0 - alpha * (np.log(v) - 1.0) / np.log(v) ** 2
        v = newton_monotone(h, hp, np.maximum(0.5 * a, E2), lower=1.05)
        return np.exp(np.copysign(2.0 * v, z))

    mid = (lambda t: (t - q) / p, lambda u: p * u + q,
           lambda y: np.log(p * np.exp(y) + q), True)
    phi = _young("section7", {"alpha": alpha, "r": r, "p": p, "q": q},
                 [(p / r + q, 1.0 / r, -log_r), (p * r + q, r, log_r)],
                 [(fwd_outer, inv_outer, log_low, False), mid,
                  (fwd_outer, inv_outer, log_high, False)])
    return phi


def make_tabulated(points: Iterable[Sequence[float]]) -> YoungFunction:
    """Convex piecewise-linear Phi through (t_i, u_i) breakpoints.

    A (0, 0) anchor is prepended if absent; each segment is one affine
    piece, and the last one runs on past the last breakpoint.  The log
    inverse is closed form on the first and the last piece, so it stays
    finite for every finite y; the cuts are the interior breakpoints.
    Raises YoungFunctionError unless the segment slopes, the anchor segment
    included, are nondecreasing up to the rounding of their differences.
    """
    pts = sorted((float(t), float(u)) for t, u in points)
    if not pts:
        raise YoungFunctionError("tabulated kind needs at least one breakpoint")
    if pts[0] != (0.0, 0.0):
        pts.insert(0, (0.0, 0.0))
    ts, us = np.array(pts).T
    du, dt = np.diff(us), np.diff(ts)
    if np.any(dt <= 0) or np.any(du <= 0):
        raise YoungFunctionError("tabulated breakpoints must be strictly increasing")
    slopes = du / dt
    # a difference of two doubles is off by up to eps times their sum, so
    # breakpoints on one line can give slopes that fall by this much
    err = 4.0 * np.finfo(float).eps * slopes * ((us[1:] + us[:-1]) / du
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

    def lines(xs, ys, ss):
        # one map for all segments, so that a call spanning many of them is
        # one batch: each entry on its segment's line, the last running on
        def line(x):
            i = np.searchsorted(xs[1:-1], x, side="right")
            return ss[i] * (x - xs[i]) + ys[i]
        return line

    fwd, inv = lines(ts, us, slopes), lines(us, ts, dt / du)
    # closed form on the first segment, through the origin, and on the
    # last: Phi^{-1}(u) = (u + offset) / end_slope, in the log of u
    logs = [lambda y: np.log(inv(np.exp(y)))] * len(slopes)
    logs[-1] = lambda y: y - math.log(end_slope) + np.log1p(
        offset * np.exp(-y))
    logs[0] = lambda y: y - math.log(slopes[0])
    cuts = np.column_stack([ts[1:-1], us[1:-1], np.log(us[1:-1])])
    return _young("tabulated", {"points": tuple(map(tuple, pts))}, cuts,
                  [(fwd, inv, log_inv, True) for log_inv in logs])


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
    t = u = np.geomspace(1e-6, 1e6, 1000)
    back = phi(phi.inverse(u))
    roundtrip = float(np.max(np.abs(back / u - 1.0)))

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
