"""Luxemburg norms for finite sequences and for sampled periodic functions.

The sequence norm is inf{lambda > 0 : sum Phi(|x_i|/lambda) <= 1}; for
sampled functions the sum is replaced by the grid average, matching the
normalised measure on the torus.  For finite data and a continuous strictly
increasing Phi the modular equals 1 exactly at the norm, so the norm is
computed as the root of a strictly decreasing function of lambda (Brent on a
guaranteed bracket, expanded by doubling if rounding spoils it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import brentq

from .reports import VerificationReport
from .trig import refine_on_grid
from .young import YoungFunction, check_sqrt_concavity

__all__ = [
    "ModularValue",
    "modular_seq",
    "modular_fun",
    "modular_profile",
    "norm_seq",
    "norm_fun",
    "poly_norm",
    "embed_l2_check",
]


@dataclass(frozen=True)
class ModularValue:
    """One point of the modular curve lambda -> modular(x/lambda).

    The modular is nonincreasing in lambda for fixed data, which makes the
    Luxemburg infimum a root-finding problem.
    """

    lam: float
    modular: float


def modular_seq(phi: YoungFunction, x, lam: float) -> float:
    """Sum of Phi(|x_i| / lam) over the finite sequence x."""
    a = np.abs(np.asarray(x).ravel())
    if a.size == 0:
        return 0.0
    return float(np.sum(phi(a / lam)))


def modular_fun(phi: YoungFunction, samples, lam: float) -> float:
    """Average of Phi(|f| / lam) over uniform grid samples."""
    a = np.abs(np.asarray(samples).ravel())
    if a.size == 0:
        raise ValueError("empty sample grid")
    return float(np.mean(phi(a / lam)))


def modular_profile(phi: YoungFunction, x, lams: Sequence[float],
                    kind: str = "seq") -> list[ModularValue]:
    fn = modular_seq if kind == "seq" else modular_fun
    return [ModularValue(float(l), fn(phi, x, float(l))) for l in lams]


def _lux_root(phi: YoungFunction, a: np.ndarray, average: bool) -> float:
    """Solve modular(a / lambda) = 1 for the nonnegative data a.

    The root is found for a / max(a), which overwrites a, and scaled back:
    on subnormal data the bracket m / Phi^{-1}(n) would underflow to 0.
    """
    n = a.size
    m = float(np.max(a))
    if m == 0.0:
        return 0.0
    a /= m
    weight = 1.0 / n if average else 1.0

    def modular(lam: float) -> float:
        return weight * float(np.sum(phi(a / lam)))

    # At lam = 1/Phi^{-1}(n) the modular is >= 1; at 1/Phi^{-1}(1/n) it is <= 1.
    lo = 1.0 / float(phi.inverse(float(n)))
    hi = 1.0 / float(phi.inverse(1.0 / n))
    for _ in range(200):
        if modular(lo) >= 1.0:
            break
        lo *= 0.5
    for _ in range(200):
        if modular(hi) <= 1.0:
            break
        hi *= 2.0
    if lo == hi:
        return m * lo
    # a tiny xtol leaves the relative tolerance in charge of the stop
    return m * float(brentq(lambda l: modular(l) - 1.0, lo, hi,
                            xtol=np.finfo(float).tiny, rtol=1e-13,
                            maxiter=300))


def norm_seq(phi: YoungFunction, x) -> float:
    """Luxemburg norm of a finite (real or complex) sequence.

    Returns 0 iff x = 0; otherwise the unique lambda with unit modular,
    to relative tolerance 1e-12.
    """
    a = np.abs(np.asarray(x, dtype=complex).ravel()).astype(float)
    if a.size == 0 or not np.any(a > 0):
        return 0.0
    return _lux_root(phi, a, average=False)


def norm_fun(phi: YoungFunction, samples) -> float:
    """Luxemburg norm of a function given by samples on a uniform grid.

    The grid must be uniform on the torus (any dimension, flattened); for a
    trigonometric polynomial of coordinate degree D the grid should hold at
    least 8(D+1) points per axis (see poly_norm for the convergence-checked
    wrapper).
    """
    a = np.abs(np.asarray(samples, dtype=complex).ravel()).astype(float)
    if a.size == 0:
        raise ValueError("empty sample grid")
    if not np.any(a > 0):
        return 0.0
    return _lux_root(phi, a, average=True)


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
    if exact_l2 and phi.kind == "power" and phi.params.get("p") == 2.0:
        return f.l2_norm()
    return refine_on_grid(f, lambda v: norm_fun(phi, v), oversample=oversample,
                          rel_tol=rel_tol, max_doublings=max_doublings,
                          max_grid=max_grid)[0]


def embed_l2_check(phi: YoungFunction, x) -> VerificationReport:
    """Check the sequence-space embedding ||x||_2 <= ||x||_{l_Phi}.

    Requires Phi(sqrt(.)) concave (checked and echoed); then subadditivity of
    that map bounds the Euclidean norm by Phi^{-1}(1) times the Luxemburg
    norm, and Phi^{-1}(1) <= 1 for the kinds used here.
    """
    conc = check_sqrt_concavity(phi, np.geomspace(1e-8, 1e8, 257))
    a = np.abs(np.asarray(x, dtype=complex).ravel()).astype(float)
    l2 = float(np.sqrt(np.sum(a ** 2)))
    lux = norm_seq(phi, a)
    margin = lux - l2
    return VerificationReport(
        check_id="l2-embedding",
        inputs={"phi": repr(phi), "n": int(a.size),
                "sqrt_concavity_passed": conc.passed},
        quantities={"l2": l2, "lux": lux,
                    "inverse_at_one": float(phi.inverse(1.0))},
        margin=margin,
        passed=margin >= -1e-10 * max(lux, 1.0),
        tolerance="lux - l2 >= -1e-10 relative",
    )
