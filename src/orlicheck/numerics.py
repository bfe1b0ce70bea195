"""Shared numerical primitives: composite Gauss-Legendre panels, improper
integrals in the log domain with decade-by-decade truncation control, dyadic
endpoint refinement with convergence classification, and safeguarded monotone
root finding (vectorised bisection and Newton).

Everything here is deterministic and pure; all tolerances are explicit
arguments so callers can expose them for refinement tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

LN10 = float(np.log(10.0))

CONVERGENT = "convergent"
DIVERGENT = "divergent"
INDETERMINATE = "indeterminate"


@lru_cache(maxsize=32)
def _gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def gauss_panel(fn: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                nodes: int = 64) -> float:
    """Single Gauss-Legendre panel of ``fn`` over [a, b]; fn is vectorised."""
    if b <= a:
        return 0.0
    x, w = _gl_nodes(nodes)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return float(half * np.dot(w, fn(mid + half * x)))


def integrate_panels(fn: Callable[[np.ndarray], np.ndarray],
                     edges: Sequence[float], nodes: int = 64) -> float:
    """Composite Gauss-Legendre over consecutive [edges[i], edges[i+1]]."""
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        total += gauss_panel(fn, float(a), float(b), nodes)
    return total


def split_at_breakpoints(a: float, b: float,
                         breakpoints: Sequence[float]) -> list[float]:
    """Edges for [a, b] with any interior breakpoints inserted."""
    inner = sorted(p for p in breakpoints if a < p < b)
    return [a, *inner, b]


def integrate_finite_log(logF: Callable[[np.ndarray], np.ndarray],
                         x0: float, x1: float, *, nodes: int = 64,
                         breakpoints: Sequence[float] = ()) -> float:
    """Integrate exp(logF(x)) over the finite interval [x0, x1].

    ``logF`` must return the logarithm of the (positive) integrand, which is
    how integrands built from Young-function inverses stay representable for
    arguments far outside float range.
    """
    if x1 <= x0:
        return 0.0
    fn = lambda x: np.exp(logF(x))
    total = 0.0
    lo = x0
    while lo < x1:
        hi = min(lo + LN10, x1)
        edges = split_at_breakpoints(lo, hi, breakpoints)
        total += integrate_panels(fn, edges, nodes)
        lo = hi
    return total


@dataclass
class ImproperIntegral:
    """Decade-truncated value of an improper integral with its tail bookkeeping."""

    value: float
    tail_bound: float
    x_end: float
    n_decades: int
    converged: bool
    divergent: bool
    truncated: bool
    last_ratio: float


def integrate_log_improper(logF: Callable[[np.ndarray], np.ndarray],
                           x0: float, *, nodes: int = 64,
                           rel_decade_tol: float = 1e-8,
                           tail_rel: float = 1e-6,
                           max_decades: int = 2600,
                           divergence_ratio: float = 0.999,
                           breakpoints: Sequence[float] = ()) -> ImproperIntegral:
    """Integrate exp(logF(x)) over [x0, oo) decade by decade.

    Stops once two consecutive decades each contribute less than
    ``rel_decade_tol`` of the running total and the geometric tail estimate is
    below ``tail_rel`` of it.  Flags divergence when the decade contributions
    fail the decay test (ratio >= ``divergence_ratio`` over several decades),
    and truncation when the decade budget runs out first.
    """
    fn = lambda x: np.exp(logF(x))
    total = 0.0
    prev = None
    ratio = 0.0
    small_streak = 0
    slow_streak = 0
    lo = x0
    for j in range(max_decades):
        hi = lo + LN10
        edges = split_at_breakpoints(lo, hi, breakpoints)
        c = integrate_panels(fn, edges, nodes)
        total += c
        if prev is not None and prev > 0.0:
            ratio = c / prev
            slow_streak = slow_streak + 1 if ratio >= divergence_ratio else 0
            if slow_streak >= 3 and j >= 5:
                return ImproperIntegral(total, np.inf, hi, j + 1,
                                        False, True, False, ratio)
        prev = c
        lo = hi
        if total > 0.0 and c < rel_decade_tol * total:
            small_streak += 1
            if small_streak >= 2:
                tail = c * ratio / (1.0 - ratio) if 0.0 < ratio < 1.0 else c
                if tail < tail_rel * total:
                    return ImproperIntegral(total, tail, hi, j + 1,
                                            True, False, False, ratio)
        else:
            small_streak = 0
    tail = prev * ratio / (1.0 - ratio) if 0.0 < ratio < 1.0 else np.inf
    return ImproperIntegral(total, tail, lo, max_decades,
                            False, False, True, ratio)


@dataclass
class RefinedIntegral:
    """Integral with a left-endpoint singularity, resolved by dyadic shells."""

    value: float
    status: str
    last_ratio: float
    n_levels: int
    contributions: tuple[float, ...]


def integrate_dyadic_refine(fn: Callable[[np.ndarray], np.ndarray],
                            a: float, b: float, *, levels: int = 60,
                            nodes: int = 32,
                            convergent_ratio: float = 0.98,
                            divergent_ratio: float = 1.02,
                            rel_tol: float = 1e-10) -> RefinedIntegral:
    """Integrate fn over (a, b] with dyadic refinement towards ``a``.

    Shells [a + L/2^(j+1), a + L/2^j] are integrated outward-in; the observed
    geometric ratio of shell contributions classifies the singularity:
    sustained ratio below ``convergent_ratio`` means convergent (a geometric
    tail estimate is added), above ``divergent_ratio`` divergent, otherwise
    indeterminate (the logarithmic borderline).
    """
    length = b - a
    contributions: list[float] = []
    total = 0.0
    for j in range(levels):
        lo = a + length * 0.5 ** (j + 1)
        hi = a + length * 0.5 ** j
        c = gauss_panel(fn, lo, hi, nodes)
        contributions.append(c)
        total += c
        if j >= 8:
            window = contributions[-5:]
            if any(w <= 0.0 for w in window[:-1]):
                continue
            ratios = [w2 / w1 for w1, w2 in zip(window[:-1], window[1:])]
            rho = float(np.exp(np.mean(np.log(ratios)))) if all(
                r > 0 for r in ratios) else 0.0
            if rho >= divergent_ratio:
                return RefinedIntegral(total, DIVERGENT, rho, j + 1,
                                       tuple(contributions))
            if rho < convergent_ratio and c < rel_tol * max(total, 1e-300):
                tail = c * rho / (1.0 - rho) if rho > 0 else 0.0
                return RefinedIntegral(total + tail, CONVERGENT, rho, j + 1,
                                       tuple(contributions))
    window = contributions[-5:]
    if all(w > 0.0 for w in window):
        ratios = [w2 / w1 for w1, w2 in zip(window[:-1], window[1:])]
        rho = float(np.exp(np.mean(np.log(ratios))))
    else:
        rho = 0.0
    if rho >= divergent_ratio:
        status = DIVERGENT
    elif rho < convergent_ratio:
        tail = contributions[-1] * rho / (1.0 - rho) if rho > 0 else 0.0
        return RefinedIntegral(total + tail, CONVERGENT, rho, levels,
                               tuple(contributions))
    else:
        status = INDETERMINATE
    return RefinedIntegral(total, status, rho, levels, tuple(contributions))


def bisect_increasing(fn: Callable[[np.ndarray], np.ndarray],
                      target: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                      *, iters: int = 200, rel: float = 1e-14) -> np.ndarray:
    """Vectorised bisection: solve fn(x) = target for increasing fn.

    Brackets are expanded by halving ``lo`` and doubling ``hi`` until they
    straddle the target, then bisected to relative width ``rel`` (or
    ``iters`` steps).  Raises ValueError if some target is still outside
    its bracket at the 200th expansion check on either side.
    """
    target = np.asarray(target, dtype=float)
    lo = np.broadcast_to(np.asarray(lo, dtype=float), target.shape).copy()
    hi = np.broadcast_to(np.asarray(hi, dtype=float), target.shape).copy()
    for _ in range(200):
        bad = fn(lo) > target
        if not bad.any():
            break
        lo[bad] *= 0.5
    else:
        raise ValueError("bisection: lower bracket never fell below the target")
    for _ in range(200):
        bad = fn(hi) < target
        if not bad.any():
            break
        hi[bad] *= 2.0
    else:
        raise ValueError("bisection: upper bracket never rose above the target")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        below = fn(mid) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        if np.all(hi - lo <= rel * np.maximum(np.abs(hi), 1e-300)):
            break
    return 0.5 * (lo + hi)


def newton_monotone(h: Callable[[np.ndarray], np.ndarray],
                    hprime: Callable[[np.ndarray], np.ndarray],
                    x0: np.ndarray, *, iters: int = 40,
                    lower: float | None = None,
                    rel: float = 1e-15) -> np.ndarray:
    """Newton iteration for a strictly monotone smooth h, vectorised.

    ``lower`` clamps iterates away from a domain boundary (e.g. log arguments).
    """
    x = np.asarray(x0, dtype=float).copy()
    for _ in range(iters):
        step = h(x) / hprime(x)
        x_new = x - step
        if lower is not None:
            x_new = np.maximum(x_new, lower)
        done = np.abs(x_new - x) <= rel * np.maximum(np.abs(x_new), 1e-300)
        x = x_new
        if done.all():
            break
    return x
