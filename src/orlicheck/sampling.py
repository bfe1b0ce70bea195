"""Empirical verification of Marcinkiewicz-type sampling inequalities.

Three checks:

* the classical 1-D modular inequality: for a polynomial g of degree n,
  sampled at the 2n+1 equispaced points 2 pi (k+n)/(2n+1),
      mean_k Phi(|g(x_k)|/3) <= (2 pi)^{-1} int Phi(|g|);
* its Orlicz-norm version on dyadic frames: for spectrum inside the frame
  of level n,
      ||samples on the frame||_{l_Phi} <= 24 C^2 Phi^{-1}(omega_n) ||g||_{L_Phi},
  valid when Phi is restrictedly supermultiplicative and has the
  inverse-product lower bound, both with constant C;
* the Hilbert lower route: ||b_n * f||_{L_2} <= K omega_n^{-1/2}
  ||(b_n * f) samples||_{l_2}.  The implicit constant is not explicit in the
  underlying sampling theorem; the default threshold K = 2 follows from the
  grid Parseval identity with the 4/3 grid-to-frame slack, and the observed
  empirical constant is always reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .luxemburg import norm_fun, norm_seq, poly_norm
from .trig import (Frame, TrigPoly, band_kernel, convolve, frame,
                   refine_on_grid, sample_on_grid)
from .young import (YoungFunction, check_inverse_product,
                    check_supermultiplicativity, supermultiplicativity_pairs)

__all__ = [
    "SamplingCheck",
    "classical_check_1d",
    "orlicz_sampling_check",
    "l2_sampling_lower",
    "random_poly_on_frame",
    "random_poly_1d",
]


@dataclass
class SamplingCheck:
    """One sampling-inequality trial: lhs <= rhs * (1 + 1e-9) to pass.

    ``bound`` echoes the constant through which rhs was built (1 for the
    modular check, 24 C^2 for the Orlicz norm version, K for the Hilbert
    lower route); ``supported`` records whether the hypothesis checks of the
    underlying theorem held, so unsupported trials can be filtered rather
    than mistaken for counterexamples.  For the Orlicz check,
    ``constant_ratio`` is lhs / (Phi^{-1}(omega_n) ||g||_{L_Phi}), the
    empirical constant to hold against the 24 C^2 bound directly.  For |g|
    constant it has the closed form
    Phi^{-1}(1) / (Phi^{-1}(1/omega_n) Phi^{-1}(omega_n)), which is 1 for
    every power Phi.
    """

    check_id: str
    level: int | None
    poly_id: str
    lhs: float
    rhs: float
    bound: float
    passed: bool
    supported: bool = True
    constant_ratio: float | None = None

    @property
    def ratio(self) -> float:
        return self.lhs / self.rhs if self.rhs > 0 else math.inf

    def row(self) -> dict:
        row = {
            "check_id": self.check_id, "level": self.level,
            "poly_id": self.poly_id, "lhs": self.lhs, "rhs": self.rhs,
            "ratio": self.ratio, "bound": self.bound,
            "passed": self.passed, "supported": self.supported,
        }
        if self.constant_ratio is not None:
            row["constant_ratio"] = self.constant_ratio
        return row


def classical_check_1d(g: TrigPoly, phi: YoungFunction, *, n: int | None = None,
                       oversample: int = 8) -> SamplingCheck:
    """Grid modular vs integral modular for a 1-D polynomial of degree n.

    lhs = (2n+1)^{-1} sum_k Phi(|g(2 pi (k+n)/(2n+1))|/3),
    rhs = (2 pi)^{-1} int Phi(|g|) by oversampled quadrature with a doubling
    convergence check.  Holds for every nondecreasing convex Phi, so any
    failure indicates a grid or quadrature bug.
    """
    if g.dim != 1:
        raise ValueError("classical check needs a 1-D polynomial")
    n = g.degree if n is None else int(n)
    if n < g.degree:
        raise ValueError("declared degree below actual degree")
    m = 2 * n + 1
    # grid points 2 pi (k+n)/m, k = -n..n, equal the standard m-grid re-indexed
    lhs = float(np.mean(phi(np.abs(g.sample_uniform(m)) / 3.0)))
    rhs = refine_on_grid(g, lambda v: float(np.mean(phi(np.abs(v)))),
                         degree=n, oversample=oversample, rel_tol=1e-10,
                         max_doublings=3)[0]
    return SamplingCheck(
        check_id="classical-1d", level=n, poly_id=f"deg{g.degree}",
        lhs=lhs, rhs=rhs, bound=1.0, passed=lhs <= rhs * (1.0 + 1e-9))


def orlicz_sampling_check(f: TrigPoly, n: int, phi: YoungFunction, C: float,
                          *, poly_id: str = "", fr: Frame | None = None,
                          check_preconditions: bool = True,
                          precondition_seed: int = 0) -> SamplingCheck:
    """Orlicz sampling inequality on the frame of level n.

    lhs is the sequence Luxemburg norm of the frame-grid samples, rhs is
    24 C^2 Phi^{-1}(omega_n) times the function Luxemburg norm.  The spectrum
    must sit inside the frame (violations are rejected); the
    supermultiplicativity and inverse-product hypotheses for (Phi, C) are
    verified on deterministic samples and a failure marks the trial
    unsupported (it is still computed).

    The check promises only constant_ratio <= 24 C^2 (equivalently
    lhs <= rhs); it does not claim that any polynomial maximises the ratio.
    A single frame coefficient (|g| = 1) gives the closed form
    constant_ratio = Phi^{-1}(1) / (Phi^{-1}(1/omega_n) Phi^{-1}(omega_n)),
    but random frame polynomials land on either side of it, because the
    frame keeps only omega_n of the M^2 grid points and grid Parseval does
    not hold on it.
    """
    fr = fr or frame(n)
    if not set(f.support()) <= set(fr.indices):
        raise ValueError("spectrum support must lie inside the frame")
    supported = True
    if check_preconditions:
        pairs = supermultiplicativity_pairs(precondition_seed, 64)
        sup_rep = check_supermultiplicativity(phi, C, pairs)
        inv_rep = check_inverse_product(phi, C, np.geomspace(1e-8, 1e8, 129))
        supported = sup_rep.passed and inv_rep.passed
    samples = sample_on_grid(f, fr)
    lhs = norm_seq(phi, samples)
    bound = 24.0 * C * C
    # 1e-5 quadrature for the function norm; the 24 C^2 margin dwarfs it
    fun_norm = poly_norm(phi, f, rel_tol=1e-5, max_doublings=1, max_grid=1024)
    inv_omega = float(phi.inverse(float(fr.omega)))
    rhs = bound * inv_omega * fun_norm
    chk = SamplingCheck(
        check_id="orlicz-sampling", level=n, poly_id=poly_id or f"deg{f.degree}",
        lhs=lhs, rhs=rhs, bound=bound,
        passed=lhs <= rhs * (1.0 + 1e-9), supported=supported)
    chk.constant_ratio = lhs / (inv_omega * fun_norm) if fun_norm > 0 else 0.0
    return chk


def l2_sampling_lower(f: TrigPoly, n: int, *, K: float = 2.0,
                      poly_id: str = "") -> SamplingCheck:
    """Hilbert lower sampling route for the band piece of level n.

    Checks ||b_n * f||_{L_2} <= K * omega_n^{-1/2} * ||(b_n * f)||_{l_2}
    with the frame-grid sample l2 norm on the right.  The zero band passes
    trivially.
    """
    if n < 3:
        raise ValueError("the frame grid needs level >= 3")
    band = convolve(band_kernel(n), f)
    fr = frame(n)
    if not band.coeffs:
        return SamplingCheck(check_id="l2-sampling-lower", level=n,
                             poly_id=poly_id or f"deg{f.degree}", lhs=0.0,
                             rhs=0.0, bound=K, passed=True)
    lhs = band.l2_norm()
    samples = sample_on_grid(band, fr)
    rhs = K * float(np.sqrt(np.sum(np.abs(samples) ** 2) / fr.omega))
    return SamplingCheck(
        check_id="l2-sampling-lower", level=n,
        poly_id=poly_id or f"deg{f.degree}", lhs=lhs, rhs=rhs, bound=K,
        passed=lhs <= rhs * (1.0 + 1e-9))


def random_poly_on_frame(n: int, seed: int, law: str = "gaussian", *,
                         subset_fraction: float = 1.0,
                         sigma: float = 1.0) -> TrigPoly:
    """Deterministic random polynomial with spectrum on the frame of level n.

    ``gaussian`` draws complex Gaussians with E|c|^2 = sigma^2; ``unimodular``
    draws unit-modulus coefficients with uniform phases.  A subset fraction
    below 1 keeps a random subset of the frame lattice.
    """
    fr = frame(n)
    rng = np.random.default_rng(seed)
    idx = list(fr.indices)
    if subset_fraction < 1.0:
        keep = rng.random(len(idx)) < subset_fraction
        idx = [k for k, flag in zip(idx, keep) if flag]
    count = len(idx)
    if law == "gaussian":
        vals = sigma * (rng.standard_normal(count)
                        + 1j * rng.standard_normal(count)) / math.sqrt(2.0)
    elif law == "unimodular":
        vals = np.exp(2j * np.pi * rng.random(count))
    else:
        raise ValueError(f"unknown coefficient law: {law!r}")
    return TrigPoly(2, dict(zip(idx, vals)))


def random_poly_1d(degree: int, seed: int, law: str = "gaussian") -> TrigPoly:
    """Deterministic random 1-D polynomial with full spectrum [-degree, degree]."""
    rng = np.random.default_rng(seed)
    ks = range(-degree, degree + 1)
    count = 2 * degree + 1
    if law == "gaussian":
        vals = (rng.standard_normal(count)
                + 1j * rng.standard_normal(count)) / math.sqrt(2.0)
    elif law == "unimodular":
        vals = np.exp(2j * np.pi * rng.random(count))
    else:
        raise ValueError(f"unknown coefficient law: {law!r}")
    return TrigPoly(1, {(k,): v for k, v in zip(ks, vals)})
