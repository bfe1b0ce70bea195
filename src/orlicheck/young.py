"""Young functions as first-class values.

A Young function is a continuous, strictly increasing, convex
Phi: [0, oo) -> [0, oo) with Phi(0) = 0, Phi(t)/t -> 0 at 0 and
t/Phi(t) -> 0 at infinity.  Its three maps, forward, inverse and an
overflow-safe log-domain inverse y -> ln Phi^{-1}(e^y) for the
improper-integral machinery, are each reached through one front, a
YoungFunction method: the front shapes, the kernel checks (see there).

Each kind is one table of pieces, declared once by its maker, which
rejects a parameter that is NaN or infinite.  Adjacent pieces meet at a
cut, the triple (t, Phi(t), ln Phi(t)), so a cut splits all three maps at
the same place; a piece gives the three maps' formulas and says whether
Phi is affine on it.  The three kernels, their domains, the kinks of the
log inverse and the affine intervals all come from that table, so they
cannot disagree, and no piece calls another or an assembled kernel.
Every kernel, a one-piece table's too, fixes its ends without handing them
to a formula: 0 -> 0 (forward, inverse), -oo -> -oo (log inverse) and
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
raising, so negative controls can be exercised on the same code path:
``validate`` for the contract, and the sampled hypotheses sqrt-concavity,
supermultiplicativity and the inverse product.  Each hands its margins and
their slacks to ``reports.worst_of``, which passes it iff every margin is
at least minus its own slack.  The lemma that turns the inverse's
submultiplicativity into supermultiplicativity has no check: for
increasing Phi its hypothesis and conclusion are one statement, so a check
of it could fail only by the rounding of Phi(Phi^{-1}(u)), which
``validate`` bounds.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .numerics import newton_monotone
from .reports import VerificationReport, worst_of

__all__ = [
    "YoungFunction",
    "YoungFunctionError",
    "make_power",
    "make_logpower",
    "make_section7",
    "make_tabulated",
    "validate",
    "check_sqrt_concavity",
    "check_supermultiplicativity",
    "check_inverse_product",
    "supermultiplicativity_pairs",
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
    kernels ``_forward``, ``_inverse`` and ``_log_inverse``.  A front only
    shapes: it takes ``np.asarray(x, dtype=float)``, hands the kernel x flat
    (x itself if 1-D), and returns a float for a scalar x, else x's shape.
    The kernel checks: it raises YoungFunctionError on NaN (forward and
    inverse also on a negative entry).
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
        return _front(self._forward, t)

    __call__ = forward

    def inverse(self, u):
        return _front(self._inverse, u)

    def log_inverse(self, y):
        return _front(self._log_inverse, y)

    @property
    def is_square(self) -> bool:
        """Phi(t) = t^2, where Luxemburg norms are L2 norms (Parseval)."""
        return self.kind == "power" and self.params.get("p") == 2.0

    def __repr__(self) -> str:  # params echo for report provenance
        inner = ", ".join(f"{k}={v:.6g}" for k, v in self.params.items()
                          if isinstance(v, (int, float)))
        return f"YoungFunction({self.kind}, {inner})"


def _front(kernel: Callable[[np.ndarray], np.ndarray], x):
    """kernel(x) for x of any shape: the kernel takes x flat."""
    arr = np.asarray(x, dtype=float)
    flat = arr if arr.ndim == 1 else arr.reshape(-1)
    out = kernel(flat)
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


# ---------------------------------------------------------------------------
# piece tables, and one for each kind
# ---------------------------------------------------------------------------

def _piecewise(low: float, cuts: Sequence[float], fns: Sequence[Callable],
               what: str) -> Callable:
    """The kernel that applies fns[i] on [cuts[i-1], cuts[i]), the cuts
    increasing from low to inf, and fixes the ends low and inf.

    An entry that is NaN or below low raises YoungFunctionError ("argument
    of " + what), from the reduction that also picks the route.  An array
    that lies on one piece, ends excluded, goes to that piece's formula
    whole, with no masks and no copy.  Otherwise each piece's formula runs
    once on that piece's entries, in their order; the ends are copied
    through, and no formula sees one.  No formula may write to its argument.
    """
    edges = [*cuts, math.inf]
    bounds = np.array(edges)

    def kernel(x):
        if x.size:
            lo, hi = x.min(), x.max()
            if not lo >= low:   # min propagates NaN
                raise YoungFunctionError(f"argument of {what}")
            if lo > low and hi < math.inf:
                i = bisect.bisect_right(edges, lo)
                if hi < edges[i]:
                    return fns[i](x)
        out = x.copy()
        piece = np.searchsorted(bounds, x, side="right")  # len(fns) at inf
        piece[x == low] = len(fns)
        for i, fn in enumerate(fns):
            on = piece == i
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
        kind, params,
        _piecewise(0.0, ts, fwds, "Phi must be >= 0 and not NaN"),
        _piecewise(0.0, us, invs, "Phi^{-1} must be >= 0 and not NaN"),
        _piecewise(-math.inf, ys, logs, "Phi^{-1} must not be NaN"),
        log_inverse_breaks=tuple(ys),
        affine_pieces=tuple((lo, hi) for lo, hi, flat
                            in zip(ends, ends[1:], affine) if flat))


def make_power(p: float) -> YoungFunction:
    """Phi(t) = t^p with exact inverse u^(1/p); requires a finite p > 1.

    p <= 1 is rejected: Phi(t)/t -> 0 at zero fails and the function is not
    strictly convex.
    """
    p = float(p)
    if not 1.0 < p < math.inf:
        raise YoungFunctionError("power kind requires a finite p > 1")
    q = 1.0 / p
    return _young("power", {"p": p}, [],
                  [(lambda t: t ** p, lambda u: u ** q, lambda y: y / p,
                    False)])


def make_logpower(p0: float, gamma: float, switch: float = 0.5) -> YoungFunction:
    """Phi(t) = t^p0 / |ln t|^gamma on (0, switch), tangent line from switch.

    Requires finite p0 >= 1 and gamma > 0; switch must stay below 1 so the
    closed form never meets the |ln t| = 0 singularity.
    """
    p0, gamma, switch = float(p0), float(gamma), float(switch)
    if not 1.0 <= p0 < math.inf:
        raise YoungFunctionError("logpower kind requires a finite p0 >= 1")
    if not 0.0 < gamma < math.inf:
        raise YoungFunctionError("logpower kind requires a finite gamma > 0")
    if not 0.0 < switch < 1.0:
        raise YoungFunctionError("logpower switch must lie in (0, 1)")

    ls = -math.log(switch)                     # |ln switch| > 0
    phi_switch = switch ** p0 * ls ** (-gamma)
    slope = switch ** (p0 - 1.0) * ls ** (-gamma) * (p0 + gamma / ls)

    def log_small(ly):
        # solve r(y) = p0*y - gamma*ln(-y) = ly for y = ln t, from
        # y = ln switch: r is increasing and convex, so Newton started right
        # of the root falls monotonically onto it
        return newton_monotone(lambda y: p0 * y - gamma * np.log(-y),
                               lambda y: p0 - gamma / y, ly,
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
    three pieces, on each outer one the exponential of its log inverse.  The
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

    def fwd_outer(t):
        # both outer pieces solve 2v - alpha*v/ln(v) = |ln t| for
        # v = |ln sqrt(u)|, and u = exp(+-2v) with the sign of ln t
        z = np.log(t)
        a = np.abs(z)
        g = lambda v: 2.0 * v - alpha * v / np.log(v)
        gp = lambda v: 2.0 - alpha * (np.log(v) - 1.0) / np.log(v) ** 2
        v = newton_monotone(g, gp, a, np.maximum(0.5 * a, E2), lower=1.05)
        return np.exp(np.copysign(2.0 * v, z))

    low = (fwd_outer, lambda u: np.exp(log_low(np.log(u))), log_low, False)
    mid = (lambda t: (t - q) / p, lambda u: p * u + q,
           lambda y: np.log(p * np.exp(y) + q), True)
    high = (fwd_outer, lambda u: np.exp(log_high(np.log(u))), log_high,
            False)
    return _young("section7", {"alpha": alpha, "r": r, "p": p, "q": q},
                  [(p / r + q, 1.0 / r, -log_r), (p * r + q, r, log_r)],
                  [low, mid, high])


def make_tabulated(points: Iterable[Sequence[float]]) -> YoungFunction:
    """Convex piecewise-linear Phi through (t_i, u_i) breakpoints.

    A (0, 0) anchor is prepended if absent; each segment is one affine
    piece, and the last one runs on past the last breakpoint.  The log
    inverse is closed form on the first and the last piece, so it stays
    finite for every finite y; the cuts are the interior breakpoints.
    Raises YoungFunctionError on a breakpoint that is not finite, and
    unless the segment slopes, the anchor segment included, are
    nondecreasing up to the rounding of their differences.
    """
    pts = sorted((float(t), float(u)) for t, u in points)
    if not pts:
        raise YoungFunctionError("tabulated kind needs at least one breakpoint")
    bad = [pt for pt in pts if not np.isfinite(pt).all()]
    if bad:
        raise YoungFunctionError(f"tabulated breakpoint {bad[0]} is not finite")
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
    # the last segment's line is -offset <= 0 at t = 0, by convexity
    offset = slopes[-1] * ts[-1] - us[-1]

    def segment(j):
        # the line through (ts[j], us[j]) with slope s, and its inverse
        s, ds, t0, u0 = slopes[j], dt[j] / du[j], ts[j], us[j]
        inv = lambda u: ds * (u - u0) + t0
        if j == 0:              # through the origin
            log_inv = lambda y: y - math.log(s)
        elif j == slopes.size - 1:  # (u + offset) / s, in the log of u
            log_inv = lambda y: y - math.log(s) + np.log1p(
                offset * np.exp(-y))
        else:
            log_inv = lambda y: np.log(inv(np.exp(y)))
        return lambda t: s * (t - t0) + u0, inv, log_inv, True

    cuts = np.column_stack([ts[1:-1], us[1:-1], np.log(us[1:-1])])
    return _young("tabulated", {"points": tuple(map(tuple, pts))}, cuts,
                  [segment(j) for j in range(slopes.size)])


# ---------------------------------------------------------------------------
# structural validation
# ---------------------------------------------------------------------------

def validate(phi: YoungFunction) -> VerificationReport:
    """Grid diagnostics: inverse round-trip, convexity, monotonicity.

    The round trip Phi(Phi^{-1}(u)) runs over 1000 geometric points of
    [1e-6, 1e6] (relative error <= 1e-9), and the forward checks over 1000
    of t in the same interval.  Convexity is measured scale-free as the
    minimum relative increment of consecutive chord slopes on a geometric
    grid (>= -1e-12 for convex).  The margins are 1e-9 less the round-trip
    error, the minimum increment plus 1e-12, and +inf, or -inf if Phi is
    not strictly increasing on the grid; the check passes iff each is >= 0,
    and reports the least.
    """
    t = u = np.geomspace(1e-6, 1e6, 1000)
    back = phi(phi.inverse(u))
    roundtrip = float(np.max(np.abs(back / u - 1.0)))

    vals = phi(t)
    slopes = np.diff(vals) / np.diff(t)
    increments = np.diff(slopes) / np.maximum(slopes[1:], 1e-300)
    min_inc = float(np.min(increments))
    increasing = bool(np.all(np.diff(vals) > 0))

    return worst_of(
        "young-validation", [1e-9 - roundtrip, min_inc + 1e-12,
                             math.inf if increasing else -math.inf],
        None, 0.0,
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
    if g.size < 2:
        raise YoungFunctionError(
            f"sqrt-concavity grid needs at least 2 points, got {g.size}")
    a, b = g[:-1], g[1:]
    mid = phi(np.sqrt(0.5 * (a + b)))
    avg = 0.5 * (phi(np.sqrt(a)) + phi(np.sqrt(b)))
    return worst_of(
        "sqrt-concavity", (mid - avg) / np.maximum(avg, 1e-300),
        np.column_stack([a, b]), 1e-12,
        inputs={"phi": repr(phi), "grid_size": len(g)},
        tolerance="relative midpoint defect >= -1e-12")


def check_supermultiplicativity(phi: YoungFunction, C: float,
                                pairs: Sequence[tuple[float, float]]
                                ) -> VerificationReport:
    """Phi(a) * Phi(b) <= Phi(C*a*b) over sample pairs with 0 < a < 1 <= ab < b.

    Margin is the worst absolute value of Phi(Cab) - Phi(a)Phi(b); the pass
    flag allows 1e-9 relative rounding at each pair's own scale.
    """
    if not 1.0 <= C < math.inf:
        raise YoungFunctionError("supermultiplicativity constant C must be >= 1")
    if len(pairs) == 0:
        raise YoungFunctionError(
            "supermultiplicativity pairs must be nonempty")
    pa = np.array([a for a, _ in pairs], dtype=float)
    pb = np.array([b for _, b in pairs], dtype=float)
    if np.any(~((0 < pa) & (pa < 1) & (1 <= pa * pb) & (pa * pb < pb))):
        raise YoungFunctionError("pairs must satisfy 0 < a < 1 <= ab < b")
    rhs = phi(C * pa * pb)
    margins = rhs - phi(pa) * phi(pb)
    return worst_of(
        "supermultiplicativity", margins, np.column_stack([pa, pb]),
        1e-9 * np.maximum(np.abs(rhs), 1.0),
        quantities={"min_relative_margin":
                    float(np.min(margins / np.maximum(rhs, 1e-300)))},
        inputs={"phi": repr(phi), "C": float(C), "grid_size": len(pairs)},
        tolerance="Phi(Cab) - Phi(a)Phi(b) >= -1e-9 max(Phi(Cab), 1)")


def check_inverse_product(phi: YoungFunction, C: float,
                          x_grid: Sequence[float]) -> VerificationReport:
    """1 <= C * Phi^{-1}(x) * Phi^{-1}(1/x) over a positive grid."""
    if not 1.0 <= C < math.inf:
        raise YoungFunctionError("inverse-product constant C must be >= 1")
    x = np.asarray(x_grid, dtype=float)
    if x.ndim != 1:
        raise YoungFunctionError("inverse-product grid must be 1-D")
    if x.size == 0:
        raise YoungFunctionError("inverse-product grid must be nonempty")
    if not np.all((0 < x) & (x < np.inf)):
        raise YoungFunctionError("inverse-product grid must be positive")
    prod = C * phi.inverse(x) * phi.inverse(1.0 / x)
    return worst_of(
        "inverse-product", prod - 1.0, x, 1e-12,
        inputs={"phi": repr(phi), "C": float(C), "grid_size": len(x)},
        tolerance="C Phi^{-1}(x) Phi^{-1}(1/x) - 1 >= -1e-12")


# ---------------------------------------------------------------------------
# deterministic sample pairs
# ---------------------------------------------------------------------------

def supermultiplicativity_pairs(seed: int, n: int) -> list[tuple[float, float]]:
    """Log-uniform pairs satisfying 0 < a < 1 <= ab < b, with a >= 1e-4 and
    ab < 1e6."""
    rng = np.random.default_rng(seed)
    a = np.exp(rng.uniform(math.log(1e-4), -1e-9, n))
    ab = np.exp(rng.uniform(0.0, math.log(1e6), n))
    b = ab / a
    return list(zip(a.tolist(), b.tolist()))
