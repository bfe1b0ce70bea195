"""Shared numerical primitives: composite Gauss-Legendre panels, improper
integrals in the log domain with decade-by-decade truncation control, and
safeguarded root finding, all vectorised: Newton for monotone maps, and
Chandrupatla's bracketed solve, which stops each entry on its own.  ``Status``
is the one vocabulary in which every outcome of the package says how far its
value can be trusted.

The log-domain integrals evaluate blocks of decades, one vectorised integrand
call per block; the decade stopping rule consumes a block in order and the
decades past the stop are discarded.  Every block holds 4096 Gauss nodes,
64 decades of 64: each float64 temporary of a block is then 32 KB, and the
few alive at once stay under glibc's 128 KB trim threshold and top pad, so
the heap is not trimmed and regrown on every block.  As each Gauss panel is
summed on its own, no value depends on how decades are grouped in blocks.

Everything here is deterministic and pure.  The arguments that callers or
refinement tests set are the Gauss nodes per panel, the breakpoints, the
decade budget ``max_decades``, and Chandrupatla's ``ftol``; the other
tolerances are constants stated in each docstring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

LN10 = float(np.log(10.0))


@lru_cache(maxsize=32)
def _gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _count(n, name: str) -> int:
    """n as an int; a ValueError naming it unless it is an integer >= 1."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"{name} must be an integer >= 1, not {n!r}")
    return int(n)


def gauss_panel(fn: Callable[[np.ndarray], np.ndarray], a: float | np.ndarray,
                b: float | np.ndarray, nodes: int = 64) -> float | np.ndarray:
    """Gauss-Legendre panel of ``fn`` over [a, b]; fn is vectorised.

    Scalar ends give a float; equal-shape 1-D arrays give one value per panel
    from one ``fn`` call on the (panels, nodes) node matrix, 0 where b <= a.
    Each row is summed on its own (np.vecdot; BLAS ``@ w`` rounds the last
    rows mod 4 apart), so a panel has its scalar bits whatever shares a call.
    """
    x, w = _gl_nodes(nodes)
    if np.ndim(a) == 0:
        if b <= a:
            return 0.0
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        return float(half * np.dot(w, fn(mid + half * x)))
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    vals = half * np.vecdot(fn(mid[:, None] + half[:, None] * x), w)
    return np.where(b > a, vals, 0.0)


def _decade_ends(x0: float, n: int) -> np.ndarray:
    """x0 and the next n decade ends, added one LN10 at a time in order."""
    return np.add.accumulate(np.concatenate(([x0], np.full(n, LN10))))


def _decade_sums(logF: Callable[[np.ndarray], np.ndarray], ends: np.ndarray,
                 breakpoints: np.ndarray, nodes: int) -> np.ndarray:
    """Integral of exp(logF) over each [ends[i], ends[i+1]], split into panels
    at the breakpoints inside it; one ``gauss_panel`` call, each decade's
    panels summed in order, so no decade's sum depends on the others.  The
    exponential overwrites logF's output unless it is read-only."""
    def fn(x):
        v = np.asarray(logF(x), dtype=float)
        return np.exp(v, out=v if v.flags.writeable else None)

    inner = breakpoints[(breakpoints > ends[0]) & (breakpoints < ends[-1])]
    if not inner.size:
        return gauss_panel(fn, ends[:-1], ends[1:], nodes)
    edges = np.unique(np.concatenate((ends, inner)))
    vals = gauss_panel(fn, edges[:-1], edges[1:], nodes)
    owner = np.searchsorted(ends, edges[:-1], side="right") - 1
    return np.bincount(owner, weights=vals, minlength=ends.size - 1)


def integrate_finite_log(logF: Callable[[np.ndarray], np.ndarray],
                         x0: float, x1: float, *, nodes: int = 64,
                         breakpoints: Sequence[float] = ()) -> float:
    """Integrate exp(logF(x)) over the finite interval [x0, x1].

    ``logF`` must return the logarithm of the (positive) integrand, which is
    how integrands built from Young-function inverses stay representable for
    arguments far outside float range.  All decades are evaluated as one
    block; a NaN decade, a non-finite end or a node count that is not an
    integer >= 1 raises ValueError.
    """
    if not (math.isfinite(x0) and math.isfinite(x1)):
        raise ValueError(f"ends must be finite, got [{x0!r}, {x1!r}]")
    nodes = _count(nodes, "nodes")
    if x1 <= x0:
        return 0.0
    ends = _decade_ends(x0, int((x1 - x0) / LN10) + 2)
    ends = np.append(ends[ends < x1], x1)
    contribs = _decade_sums(logF, ends, np.asarray(breakpoints, dtype=float),
                            nodes)
    nan = np.flatnonzero(np.isnan(contribs))
    if nan.size:
        lo, hi = ends[nan[0]:nan[0] + 2].tolist()
        raise ValueError(f"integrand is NaN on [{lo!r}, {hi!r}]")
    return sum(contribs.tolist())


class Status(str, Enum):
    """How far a computed value can be trusted, from best to worst.

    ``converged``: the stopping rule was met; ``truncated``: the budget ran
    out first, so the value is a partial result; ``divergent``: the quantity
    is infinite, or its evaluation failed the decay test.
    """

    CONVERGED = "converged"
    TRUNCATED = "truncated"
    DIVERGENT = "divergent"


@dataclass
class ImproperIntegral:
    """Decade-truncated value of an improper integral with its tail bookkeeping."""

    value: float
    tail_bound: float
    x_end: float
    n_decades: int
    status: Status

    @property
    def truncated(self) -> bool:
        return self.status is Status.TRUNCATED


_BLOCK_NODES = 4096     # Gauss nodes per block (see the module docstring)


def integrate_log_improper(logF: Callable[[np.ndarray], np.ndarray],
                           x0: float, *, nodes: int = 64,
                           max_decades: int = 2600,
                           breakpoints: Sequence[float] = ()) -> ImproperIntegral:
    """Integrate exp(logF(x)) over [x0, oo) decade by decade.

    Stops once two consecutive decades each contribute less than 1e-8 of the
    running total and the geometric tail estimate is below 1e-6 of it.
    Its status is divergent when the decade contributions fail the decay
    test (ratio >= 0.999 over three decades, from the sixth on), and
    truncated when the decade budget runs out first.  A non-finite x0, or
    a budget or node count that is not an integer >= 1, raises ValueError.

    Each block of ``4096 // nodes`` decades (at least one) takes one
    ``logF`` call, with overflow silenced, whose output is overwritten by its
    exponential; the rule consumes the block decade by decade and discards
    the decades past the stop.  A consumed NaN decade raises ValueError; a
    consumed decade that overflows to ``inf`` returns divergent at once.
    """
    if not math.isfinite(x0):
        raise ValueError(f"the start must be finite, got {x0!r}")
    nodes = _count(nodes, "nodes")
    max_decades = _count(max_decades, "max_decades")
    block = max(_BLOCK_NODES // nodes, 1)
    breakpoints = np.asarray(breakpoints, dtype=float)
    total, prev, ratio, lo = 0.0, None, 0.0, x0
    small_streak = slow_streak = j = 0
    while j < max_decades:
        ends = _decade_ends(lo, min(block, max_decades - j))
        with np.errstate(over="ignore"):
            contribs = _decade_sums(logF, ends, breakpoints, nodes)
        for c, hi in zip(contribs.tolist(), ends[1:].tolist()):
            if math.isnan(c):
                raise ValueError(f"integrand is NaN on [{lo!r}, {hi!r}]")
            if math.isinf(c):
                return ImproperIntegral(math.inf, math.inf, hi, j + 1,
                                        Status.DIVERGENT)
            total += c
            if prev is not None and prev > 0.0:
                ratio = c / prev
                slow_streak = slow_streak + 1 if ratio >= 0.999 else 0
                if slow_streak >= 3 and j >= 5:
                    return ImproperIntegral(total, np.inf, hi, j + 1,
                                            Status.DIVERGENT)
            prev = c
            lo = hi
            j += 1
            if total > 0.0 and c < 1e-8 * total:
                small_streak += 1
                if small_streak >= 2:
                    tail = c * ratio / (1.0 - ratio) if 0.0 < ratio < 1.0 else c
                    if tail < 1e-6 * total:
                        return ImproperIntegral(total, tail, hi, j,
                                                Status.CONVERGED)
            else:
                small_streak = 0
    tail = prev * ratio / (1.0 - ratio) if 0.0 < ratio < 1.0 else np.inf
    return ImproperIntegral(total, tail, lo, max_decades, Status.TRUNCATED)


def chandrupatla(fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
                 x1: np.ndarray, x2: np.ndarray, f1: np.ndarray,
                 f2: np.ndarray, *, ftol: float = 0.0) -> np.ndarray:
    """Vectorised bracketed root finding (Chandrupatla, Adv. Eng. Softw. 28
    (1997) 145-149): inverse quadratic interpolation where the last three
    points allow it, bisection otherwise.

    ``fn(x, idx)`` evaluates the entries ``idx`` (an index array) at the
    points x; f1 and f2 are its values at the bracket ends x1 and x2, of
    opposite signs or zero, so a caller that has them already pays nothing
    for the ends.  Each entry stops once its bracket is at most 1e-13
    times its best point wide, or |fn| <= ``ftol`` there, and only the
    entries still running are evaluated; an entry still running after 100
    steps raises RuntimeError, which names how many there are.  Returns the
    best point of each bracket, the end with the smaller |fn|.  The first
    step is the secant through the two ends, so an end that is nearly a
    root costs one step.
    """
    x1, x2, f1, f2 = (np.array(v, dtype=float) for v in (x1, x2, f1, f2))
    x3, f3 = x2, f2
    out = np.empty(x1.shape)
    live = np.arange(x1.size)
    for step in range(101):
        near = np.abs(f1) < np.abs(f2)
        best = np.where(near, x1, x2)
        tol, dx = 1e-13 * np.abs(best), np.abs(x2 - x1)
        stop = (dx <= tol) | (np.abs(np.where(near, f1, f2)) <= ftol)
        out[live[stop]] = best[stop]
        if stop.all():
            return out
        if step == 100:
            raise RuntimeError(f"Chandrupatla: {np.count_nonzero(~stop)} of "
                               f"{out.size} entries unconverged after 100 "
                               "steps")
        go = ~stop
        live, x1, x2, x3, f1, f2, f3, tol, dx = (
            v[go] for v in (live, x1, x2, x3, f1, f2, f3, tol, dx))
        with np.errstate(divide="ignore", invalid="ignore"):
            if step:
                xi = (x1 - x2) / (x3 - x2)
                ph = (f1 - f2) / (f3 - f2)
                quad = (1.0 - np.sqrt(1.0 - xi) < ph) & (ph < np.sqrt(xi))
                alpha = (x3 - x1) / (x2 - x1)
                t = np.where(quad, f1 / (f1 - f2) * f3 / (f3 - f2)
                             - alpha * f1 / (f3 - f1) * f2 / (f2 - f3), 0.5)
            else:   # no third point yet: the secant through the two ends
                t = f1 / (f1 - f2)
        t = np.clip(t, 0.5 * tol / dx, 1.0 - 0.5 * tol / dx)
        x = x1 + t * (x2 - x1)
        fx = fn(x, live)
        same = np.sign(fx) == np.sign(f1)
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1 = x, fx


def newton_monotone(g: Callable[[np.ndarray], np.ndarray],
                    gprime: Callable[[np.ndarray], np.ndarray],
                    target: np.ndarray, x0: np.ndarray, *,
                    lower: float | None = None) -> np.ndarray:
    """Newton iteration for g(x) = target, g strictly monotone and smooth,
    vectorised over the entries of the 1-D arrays target and x0 (the starts).

    Each entry freezes once its step is at most 1e-15 of its iterate, and
    only the entries still running are stepped (as chandrupatla does), so an
    entry's result does not depend on the rest of its batch; an entry still
    running after 40 steps raises RuntimeError, which names how many there
    are.  ``lower`` clamps iterates away from a domain boundary (e.g. log
    arguments).
    """
    x = np.asarray(x0, dtype=float)
    out = np.empty(x.shape)
    live = np.arange(x.size)
    for _ in range(40):
        x_new = x - (g(x) - target) / gprime(x)
        if lower is not None:
            x_new = np.maximum(x_new, lower)
        done = np.abs(x_new - x) <= 1e-15 * np.maximum(np.abs(x_new), 1e-300)
        if done.all():
            out[live] = x_new
            return out
        if done.any():
            out[live[done]] = x_new[done]
            live, x_new, target = (v[~done] for v in (live, x_new, target))
        x = x_new
    raise RuntimeError(f"Newton: {live.size} of {out.size} entries "
                       "unconverged after 40 steps")
