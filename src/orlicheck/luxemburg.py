"""Luxemburg norms for finite sequences and for sampled periodic functions.

The sequence norm is inf{lambda > 0 : sum Phi(|x_i|/lambda) <= 1}; for
sampled functions the sum is replaced by the grid average, matching the
normalised measure on the torus.  For finite data and a continuous strictly
increasing Phi the modular equals 1 exactly at the norm, so the norm is
computed as the root of a strictly increasing function of s = 1/lambda, on
a bracket from two moment bounds: the sup bound opens it, and the nearer of
Jensen's bound and the largest term alone closes it, so it is one factor
max/mean wide.  Each end is halved or doubled while its sign is wrong,
because the bounds hold exactly but their evaluation rounds.

There is one root solver, and it is row-wise: the data are the rows of a
(rows, n) array.  A row whose scaled samples lie on one affine piece of Phi
takes Jensen's end of its bracket, which is then the root; every other row
gets its own bracket, and one vectorised Chandrupatla solve
(numerics.chandrupatla) finishes them all, with one Phi call per step over
the rows still running.  norm_seq and norm_fun are its one-row case.
grid_norms is the one in-place root of sampled polynomials: it roots the
|samples| of a stack of coefficient boxes that trig.sample_abs_chunks hands
it chunk by chunk, in the buffer each chunk was written to, so |f| is never
copied; trig owns the chunk size, the sampling route and the buffers.
poly_norms runs it on one grid schedule for a stack of one width (besov's
shift differences), so a whole batch of shift norms costs a few Phi calls
per grid, or none; the Orlicz sampling check's function norm is its
one-row case.
"""

from __future__ import annotations

import numpy as np

from .numerics import chandrupatla
from .reports import VerificationReport, worst_of
from .trig import refine_on_grid, sample_abs_chunks
from .young import YoungFunction, check_sqrt_concavity

__all__ = [
    "modular_seq",
    "norm_seq",
    "norm_fun",
    "poly_norm",
    "poly_norms",
    "grid_norms",
    "embed_l2_check",
]


def modular_seq(phi: YoungFunction, x, lam: float) -> float:
    """Sum of Phi(|x_i| / lam) over the finite sequence x."""
    return float(np.sum(phi(np.abs(np.asarray(x).ravel()) / lam)))


def _lux_root(phi: YoungFunction, a: np.ndarray, average: bool) -> np.ndarray:
    """Solve modular(a_r / lambda_r) = 1 for each row a_r of the nonnegative
    (rows, n) array a; a row of zeros has norm 0.  An infinite entry raises
    ValueError; a NaN row goes on to Phi, which rejects it.

    Works on a_r / max(a_r), in place in a (on subnormal data any bracket
    built from max(a_r) itself would underflow), and solves for
    s = 1/lambda, in which w * sum Phi(s * a_r) - 1 increases; w = 1/n for
    the average, 1 for the sum, and N = n * w.  By Jensen's inequality
    N * Phi(s * mean(a_r)) <= modular, so the modular is at least 1 at
    Jensen's end s = Phi^{-1}(1/N) / mean(a_r); where s * a_r lies on one
    affine piece of Phi (phi.affine_pieces) the inequality is an equality,
    and that end is the root at no Phi call.  The other rows are solved on
    a bracket that opens at s = Phi^{-1}(1/N), since every term is at most
    Phi(s), so the modular is at most N * Phi(s).  It closes at the smaller of
    Jensen's end and s = Phi^{-1}(1/w), by the largest term w * Phi(s)
    alone.  Both inverses are shared by all rows.  The bracket is one
    factor max/mean wide, so the row-wise Chandrupatla solve needs a
    handful of modular evaluations, each one Phi call over the rows still
    running.  The bounds hold exactly, but where one is tight the rounded
    modular can land on the wrong side of 1.  A point where it is within
    one rounding unit of 1 is taken as the root: s * d/ds modular
    >= modular for convex Phi, so that point is off by at most about one
    unit relatively.  Otherwise each end is halved or doubled until its
    sign is right, at most 200 times before RuntimeError, and the modular
    values of the final ends start the solve.
    """
    n = a.shape[1]
    top = np.max(a, axis=1)
    if np.isinf(top).any():
        raise ValueError("Luxemburg norm: the data hold an infinite entry")
    norms = np.zeros(len(a))
    rows = np.flatnonzero(top != 0.0)   # NaN rows go on, for Phi to reject
    if rows.size == 0:
        return norms
    if rows.size < len(a):
        a = a[rows]
    top = top[rows]
    a /= top[:, None]
    lo = float(phi.inverse(1.0 if average else 1.0 / n))
    jensen = lo / np.mean(a, axis=1)
    if phi.affine_pieces:
        ends = np.array(phi.affine_pieces).T
        on_piece = (((np.min(a, axis=1) * jensen)[:, None] >= ends[0])
                    & (jensen[:, None] <= ends[1])).any(axis=1)
        norms[rows[on_piece]] = top[on_piece] / jensen[on_piece]
        if on_piece.all():
            return norms
        if on_piece.any():
            rest = ~on_piece
            a, rows, top, jensen = (v[rest] for v in (a, rows, top, jensen))
    weight = 1.0 / n if average else 1.0

    def excess(s: np.ndarray, idx: np.ndarray) -> np.ndarray:
        x = a if idx.size == len(a) else a[idx]
        return weight * np.sum(phi(s[:, None] * x), axis=1) - 1.0

    def guard(s: np.ndarray, wrong_side, factor: float) -> np.ndarray:
        vals = excess(s, np.arange(s.size))
        for step in range(201):
            bad = np.flatnonzero(wrong_side(vals))
            if bad.size == 0:
                return vals
            if step == 200:
                raise RuntimeError(f"Luxemburg root: {bad.size} of {s.size} "
                                   "rows have no sign change after 200 "
                                   "bracket steps")
            s[bad] *= factor
            vals[bad] = excess(s[bad], bad)

    unit = np.finfo(float).eps
    lo = np.full(rows.size, lo)
    hi = np.minimum(jensen, float(phi.inverse(1.0 / weight)))
    f_lo = guard(lo, lambda v: v > unit, 0.5)
    f_hi = guard(hi, lambda v: v < -unit, 2.0)
    norms[rows] = top / chandrupatla(excess, lo, hi, f_lo, f_hi, ftol=unit)
    return norms


def _magnitudes(x) -> np.ndarray:
    """|x| as a fresh flat float array, for _lux_root to scale in place."""
    a = np.asarray(x).ravel()
    if a.dtype not in (np.float64, np.complex128):
        a = a.astype(complex)
    return np.abs(a)


def norm_seq(phi: YoungFunction, x) -> float:
    """Luxemburg norm of a finite (real or complex) sequence.

    Returns 0 iff x = 0; otherwise the unique lambda with unit modular,
    to relative tolerance 1e-12.
    """
    a = _magnitudes(x)
    if a.size == 0:
        return 0.0
    return float(_lux_root(phi, a[None], average=False)[0])


def norm_fun(phi: YoungFunction, samples) -> float:
    """Luxemburg norm of a function given by samples on a uniform grid.

    The grid must be uniform on the torus (any dimension, flattened); for a
    trigonometric polynomial of coordinate degree D the grid should hold at
    least 8(D+1) points per axis (see poly_norm for the convergence-checked
    wrapper).
    """
    a = _magnitudes(samples)
    if a.size == 0:
        raise ValueError("empty sample grid")
    return float(_lux_root(phi, a[None], average=True)[0])


def poly_norm(phi: YoungFunction, f, *, oversample: int = 8,
              rel_tol: float = 1e-9, max_doublings: int = 4,
              max_grid: int = 4096, exact_l2: bool = True) -> float:
    """L_Phi norm of a TrigPoly by grid quadrature with a doubling check.

    Starts from ``oversample * (degree + 1)`` points per axis and doubles the
    grid until the norm moves by less than ``rel_tol`` relatively, capping
    the per-axis grid at ``max_grid`` (|f| has conical kinks at its zero set,
    so uniform-grid quadrature saturates around 1e-5 at desk-scale grids; the
    checks this feeds have orders-of-magnitude margins).  When Phi is the
    square function the Luxemburg norm equals the L2 norm, for which Parseval
    is exact; ``exact_l2=False`` forces the quadrature route.
    """
    if exact_l2 and phi.is_square:
        return f.l2_norm()
    return refine_on_grid(f.degree,
                          lambda m: norm_fun(phi, f.sample_uniform(m)),
                          oversample=oversample, rel_tol=rel_tol,
                          max_doublings=max_doublings, max_grid=max_grid)[0]


def poly_norms(phi: YoungFunction, boxes: np.ndarray) -> np.ndarray:
    """poly_norm(phi, p, exact_l2=False) for each polynomial p stacked in
    ``boxes`` (trig.coefficient_boxes), batched, on the grids of the degree d
    of the box width 2 d + 1: a row whose top coefficients cancel exactly
    visits these, not the grids of its own lower degree, and a zero row has
    norm 0.  Every grid is normed by grid_norms, chunk by chunk in place;
    each row freezes at its own first settled grid.
    """
    if not len(boxes):
        return np.zeros(0)
    grids = dict(poly_norm.__kwdefaults__)   # poly_norm's grid options
    del grids["exact_l2"]
    return refine_on_grid((boxes.shape[-1] - 1) // 2,
                          lambda m: grid_norms(phi, boxes, m), **grids)[0]


def grid_norms(phi: YoungFunction, boxes: np.ndarray, m: int) -> np.ndarray:
    """The Luxemburg norms on the uniform m-grid of the polynomials stacked
    in ``boxes`` (at least one): each chunk of |samples| that
    trig.sample_abs_chunks hands out is rooted by one row-wise root, in
    place in the buffer it was written to, so no copy of |f| is made."""
    return np.concatenate([_lux_root(phi, a, True)
                           for a in sample_abs_chunks(boxes, m)])


def embed_l2_check(phi: YoungFunction, x) -> VerificationReport:
    """Check the sequence-space embedding ||x||_2 <= ||x||_{l_Phi}.

    Requires Phi(sqrt(.)) concave (checked and echoed); then subadditivity of
    that map bounds the Euclidean norm by Phi^{-1}(1) times the Luxemburg
    norm, and Phi^{-1}(1) <= 1 for the kinds used here.
    """
    conc = check_sqrt_concavity(phi, np.geomspace(1e-8, 1e8, 257))
    a = _magnitudes(x)
    l2 = float(np.sqrt(np.sum(a ** 2)))
    lux = norm_seq(phi, a)
    return worst_of(
        "l2-embedding", [lux - l2], None, 1e-10 * max(lux, 1.0),
        inputs={"phi": repr(phi), "n": int(a.size),
                "sqrt_concavity_passed": conc.passed},
        quantities={"l2": l2, "lux": lux,
                    "inverse_at_one": float(phi.inverse(1.0))},
        tolerance="lux - l2 >= -1e-10 relative",
    )
