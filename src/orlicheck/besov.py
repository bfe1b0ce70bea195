"""Moduli of continuity and the two dyadic Besov-Orlicz norms on the torus.

The classical norm is ||f||_{L_Phi} plus the weighted dyadic sum of integral
moduli of continuity; the band norm replaces each modulus by the L_Phi norm
of the band-kernel convolution and is an exact finite sum for trigonometric
polynomials (bands vanish once the hole swallows the spectrum).  A smooth
multiplier family provides computable upper bounds for the best approximation
by box-spectrum polynomials; in the Hilbert case the spectral projection is
optimal and gives the exact value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .luxemburg import poly_norm
from .reports import VerificationReport
from .trig import TrigPoly, band_kernel, convolve
from .young import YoungFunction, make_power

__all__ = [
    "BesovParams",
    "BesovNorm",
    "MultiplierFamily",
    "default_multiplier",
    "modulus",
    "besov_norm_classical",
    "besov_norm_tilde",
    "BestApprox",
    "best_approximation",
    "check_sum_integral_sandwich",
    "check_norm_comparison",
    "dyadic_band_norm",
]


@dataclass(frozen=True)
class BesovParams:
    """Ingredients of a Besov-Orlicz norm computation.

    ``psi`` is an increasing continuous weight evaluated on [1, oo) only
    (dyadic arguments 2^n and the continuous comparison integrals).
    ``n_max`` truncates the classical dyadic sum; the band sum needs no
    truncation.  ``h_angles`` x ``h_radii`` is the polar search grid of the
    modulus of continuity.
    """

    phi: YoungFunction
    psi: Callable[[float], float]
    n_max: int = 16
    h_angles: int = 64
    h_radii: int = 8
    refine: bool = True

    def __post_init__(self):
        if self.n_max < 2:
            raise ValueError("n_max must be >= 2")


@dataclass(frozen=True)
class BesovNorm:
    """Value of a dyadic norm with its level breakdown.

    ``tail`` is the last computed dyadic term (zero for the exact band sum);
    it estimates the truncation error of the classical sum.
    """

    value: float
    lux: float
    terms: tuple[float, ...]
    tail: float

    def __float__(self) -> float:
        return self.value


# ---------------------------------------------------------------------------
# modulus of continuity
# ---------------------------------------------------------------------------

def _shift_norms(f: TrigPoly, hs: np.ndarray,
                 phi: YoungFunction) -> np.ndarray:
    """||f(. + h) - f||_{L_Phi} for each row h of the (count, dim) array hs.

    For Phi = t^2 Parseval gives sum |c_k|^2 |e^{ik.h} - 1|^2 for all rows
    through one phase matrix; otherwise each difference is normed by
    quadrature.
    """
    if phi.kind == "power" and phi.params.get("p") == 2.0:
        ks, cs = f._arrays
        jumps = np.abs(np.exp(1j * (hs @ ks.T)) - 1.0) ** 2
        return np.sqrt(np.sum(np.abs(cs) ** 2 * jumps, axis=1))
    return np.array([poly_norm(phi, f.translate(h) - f) for h in hs])


def _shift_grid(dim: int, rs: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Shift candidates, radius-major: the radii themselves in 1-D, the polar
    grid rs x thetas in 2-D."""
    if dim == 1:
        return rs[:, None]
    return np.stack([np.multiply.outer(rs, np.cos(thetas)).ravel(),
                     np.multiply.outer(rs, np.sin(thetas)).ravel()], axis=1)


def modulus(f: TrigPoly, t: float, phi: YoungFunction, *, angles: int = 64,
            radii: int = 8, refine: bool = True) -> float:
    """sup over |h| <= t of ||f(. + h) - f||_{L_Phi}, by polar grid search.

    Translation is exact in coefficients (phase factors); the supremum is
    approximated on ``angles`` x ``radii`` polar candidates including the
    circle |h| = t (4 * ``radii`` radii in 1-D), with one local refinement
    pass around the argmax (5 radii x 9 angles in 2-D, 9 radii in 1-D).
    For low-degree polynomials the objective is smooth and the grid is
    observed-converged (double ``angles``/``radii`` to check).
    """
    if t <= 0:
        raise ValueError("shift radius t must be positive")
    if not f.coeffs:
        return 0.0
    one_d = f.dim == 1
    n_r = 4 * radii if one_d else radii
    n_th = 1 if one_d else angles
    rs = t * np.arange(1, n_r + 1) / n_r
    thetas = 2.0 * np.pi * np.arange(n_th) / n_th
    vals = _shift_norms(f, _shift_grid(f.dim, rs, thetas), phi)
    best = int(np.argmax(vals))
    best_v = float(vals[best])
    if refine:
        r0, th0 = rs[best // n_th], thetas[best % n_th]
        dr, dth = t / n_r, 2.0 * np.pi / n_th
        rr = np.linspace(max(r0 - dr, 1e-12 * t), min(r0 + dr, t),
                         9 if one_d else 5)
        tt = np.linspace(th0 - dth, th0 + dth, 9)
        best_v = max(best_v, float(np.max(
            _shift_norms(f, _shift_grid(f.dim, rr, tt), phi))))
    return best_v


# ---------------------------------------------------------------------------
# the two norms
# ---------------------------------------------------------------------------

def _bands(f: TrigPoly, start: int = 0):
    """Yield (n, b_n * f) for n = start, start + 1, ... through the first
    n >= 3 with 2^{n-3} >= degree f; every later band is zero."""
    n = start
    while True:
        yield n, convolve(band_kernel(n), f)
        if n >= 3 and 2 ** (n - 3) >= f.degree:
            return
        n += 1


def besov_norm_classical(f: TrigPoly, params: BesovParams) -> BesovNorm:
    """||f||_{L_Phi} + sum_{n=0}^{n_max} psi(2^n) * modulus(f, 2^{-n}).

    The reported tail is the final dyadic term; for polynomials with a
    sub-linear weight the terms decay geometrically, so it bounds the
    truncation error up to a constant.
    """
    lux = poly_norm(params.phi, f)
    terms = []
    for n in range(params.n_max + 1):
        w = float(params.psi(2.0 ** n))
        om = modulus(f, 2.0 ** (-n), params.phi, angles=params.h_angles,
                     radii=params.h_radii, refine=params.refine)
        terms.append(w * om)
    value = lux + float(np.sum(terms))
    return BesovNorm(value, lux, tuple(terms), terms[-1] if terms else 0.0)


def besov_norm_tilde(f: TrigPoly, params: BesovParams) -> BesovNorm:
    """||f||_{L_Phi} + sum_n psi(2^n) ||b_n * f||_{L_Phi}, an exact finite sum.

    The band kernel b_n annihilates spectra inside [-2^{n-3}, 2^{n-3}]^2, so
    the sum stops once that hole covers the degree of f.
    """
    if f.dim != 2:
        raise ValueError("the band norm is defined for 2-D polynomials")
    lux = poly_norm(params.phi, f)
    terms = [float(params.psi(2.0 ** n)) * poly_norm(params.phi, band)
             if band.coeffs else 0.0 for n, band in _bands(f)]
    value = lux + float(np.sum(terms))
    return BesovNorm(value, lux, tuple(terms), 0.0)


# ---------------------------------------------------------------------------
# best approximation by box-spectrum polynomials
# ---------------------------------------------------------------------------

def _bump1(u: np.ndarray) -> np.ndarray:
    """Smooth bump exp(1 - 1/(1 - u^2)) on (-1, 1), zero outside, value 1 at 0."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ui ** 2))
    return out


@dataclass(frozen=True)
class MultiplierFamily:
    """Gaussian-damped smooth multipliers phi_m with box spectrum.

    Coefficients are eta(k/m, l/m) * exp(-(k^2 + l^2)/m^2) with eta a smooth
    product bump supported in the unit square and eta(0, 0) = 1, so
    supp(phi_m) lies in [-m, m]^2 and the mean is preserved exactly.
    """

    bump: Callable[[np.ndarray], np.ndarray] = _bump1

    def coefficients(self, m: int) -> TrigPoly:
        if m < 1:
            raise ValueError("multiplier order must be >= 1")
        ks = np.arange(-m, m + 1)
        wk = self.bump(ks / m)
        gauss = np.exp(-(ks ** 2) / m ** 2)
        coeffs = {}
        for i, k in enumerate(ks):
            if wk[i] == 0.0:
                continue
            for j, l in enumerate(ks):
                v = wk[i] * wk[j] * gauss[i] * gauss[j]
                if v != 0.0:
                    coeffs[(int(k), int(l))] = v
        return TrigPoly(2, coeffs)


def default_multiplier() -> MultiplierFamily:
    return MultiplierFamily()


@dataclass(frozen=True)
class BestApprox:
    """Upper bound (and exact Hilbert value) for the best box approximation.

    ``upper`` is ||f - phi_m * f||_{L_Phi}; ``exact_l2`` is the energy outside
    the box, the true infimum when Phi is the square function, else None.
    """

    upper: float
    exact_l2: float | None


def best_approximation(f: TrigPoly, m: int, phi: YoungFunction,
                       mult: MultiplierFamily | None = None) -> BestApprox:
    """Distance from f to polynomials with spectrum in [-m, m]^2.

    m = 0 uses the mean-value competitor (the only box polynomial is a
    constant); m >= 1 uses the smooth multiplier approximant.
    """
    if f.dim != 2:
        raise ValueError("best approximation is defined for 2-D polynomials")
    if m < 0:
        raise ValueError("box size must be >= 0")
    if m == 0:
        approx = TrigPoly(2, {(0, 0): f.coeff((0, 0))})
    else:
        mult = mult or default_multiplier()
        approx = convolve(mult.coefficients(m), f)
    upper = poly_norm(phi, f - approx)
    exact = None
    if phi.kind == "power" and phi.params.get("p") == 2.0:
        outside = sum(abs(v) ** 2 for (k, l), v in f.coeffs.items()
                      if max(abs(k), abs(l)) > m)
        exact = float(math.sqrt(outside))
    return BestApprox(upper, exact)


# ---------------------------------------------------------------------------
# verified comparisons
# ---------------------------------------------------------------------------

def check_sum_integral_sandwich(f: TrigPoly, params: BesovParams,
                                t_grid: Sequence[float]) -> VerificationReport:
    """Dyadic sum vs integral sandwich for the weighted modulus scale.

    Verifies, with truncated quantities and reported tails,
        0.5 * int_1^T psi(t)/t * modulus(f, 1/(2t)) dt
            <= sum_{n <= n_max} psi(2^n) * modulus(f, 2^{-n})
            <= 2 * int_1^T psi(t)/t * modulus(f, 2/t) dt.
    Both integrals use trapezoid quadrature on the supplied t grid.
    """
    t = np.asarray(sorted(t_grid), dtype=float)
    if t[0] < 1.0:
        raise ValueError("t grid must start at or above 1")

    if not f.coeffs:
        return VerificationReport(
            check_id="sum-integral-sandwich",
            inputs={"phi": repr(params.phi), "n_terms": 0},
            quantities={"sum": 0.0, "lower_integral": 0.0, "upper_integral": 0.0},
            margin=0.0, passed=True, tolerance="exact zero case")

    def om(tt: float) -> float:
        return modulus(f, tt, params.phi, angles=params.h_angles,
                       radii=params.h_radii, refine=params.refine)

    psi_t = np.array([params.psi(float(v)) for v in t])
    low_vals = psi_t / t * np.array([om(1.0 / (2.0 * v)) for v in t])
    up_vals = psi_t / t * np.array([om(2.0 / v) for v in t])
    i_low = float(np.trapezoid(low_vals, t))
    i_up = float(np.trapezoid(up_vals, t))

    terms = [float(params.psi(2.0 ** n)) * om(2.0 ** (-n))
             for n in range(params.n_max + 1)]
    s = float(np.sum(terms))

    # Empirical power-decay tail of the upper integrand past T.
    tail_up = 0.0
    if up_vals[-1] > 0 and up_vals[-2] > 0:
        beta = math.log(up_vals[-2] / up_vals[-1]) / math.log(t[-1] / t[-2])
        if beta > 1.0:
            tail_up = float(up_vals[-1] * t[-1] / (beta - 1.0))

    scale = max(s, 1e-300)
    margin_low = s - 0.5 * i_low
    margin_up = 2.0 * i_up - s
    passed = (margin_low >= -1e-9 * scale
              and margin_up >= -(2.0 * tail_up + 1e-9 * scale))
    return VerificationReport(
        check_id="sum-integral-sandwich",
        inputs={"phi": repr(params.phi), "n_max": params.n_max,
                "t_max": float(t[-1]), "n_nodes": int(t.size)},
        quantities={"sum": s, "sum_tail": terms[-1],
                    "lower_integral": i_low, "upper_integral": i_up,
                    "upper_integral_tail_estimate": tail_up,
                    "margin_lower": margin_low, "margin_upper": margin_up},
        margin=min(margin_low, margin_up),
        passed=passed,
        tolerance="margins >= -1e-9 relative, upper side allows 2x integral tail",
    )


def check_norm_comparison(f: TrigPoly, params: BesovParams,
                          mult: MultiplierFamily | None = None
                          ) -> VerificationReport:
    """Band norm against the classical norm, with the per-level certificate.

    Reports the ratio of the two norms and checks for every level n >= 2 that
    ||b_n * f||_{L_Phi} <= 36 * E(f, 2^{n-3}) where E is the computable
    best-approximation upper bound (the 36 comes from the L1 bound 18 of the
    band kernels via the convolution inequality).  Also echoes the constant
    prefactor 1 + psi(1) + psi(2) of the intermediate norm.
    """
    mult = mult or default_multiplier()
    tilde = besov_norm_tilde(f, params)
    classical = besov_norm_classical(f, params)
    ratio = tilde.value / classical.value if classical.value > 0 else 1.0

    levels = []
    worst = math.inf
    for n, band in _bands(f, start=2):
        lhs = poly_norm(params.phi, band) if band.coeffs else 0.0
        m = 2 ** (n - 3) if n >= 3 else 0
        rhs = 36.0 * best_approximation(f, m, params.phi, mult).upper
        margin = rhs - lhs
        worst = min(worst, margin)
        levels.append({"n": n, "m": m, "band_norm": lhs, "bound": rhs,
                       "margin": margin})

    scale = max(classical.value, 1e-300)
    passed = worst >= -1e-9 * scale
    prefactor = 1.0 + float(params.psi(1.0)) + float(params.psi(2.0))
    return VerificationReport(
        check_id="besov-norm-comparison",
        inputs={"phi": repr(params.phi), "degree": f.degree},
        quantities={"band_norm": tilde.value, "classical_norm": classical.value,
                    "ratio": ratio, "bar_norm_prefactor": prefactor,
                    "levels": levels},
        margin=worst,
        passed=passed,
        tolerance="per-level 36*E bound with 1e-9 relative slack",
    )


def dyadic_band_norm(f: TrigPoly, s: float, p: float, q: float,
                     *, n_max: int | None = None) -> float:
    """Display norm (||f||_{L_p}^q + sum 2^{q n s} ||b_n * f||_{L_p}^q)^{1/q}.

    Standard combination with the outer 1/q root; used only in reports for
    the smoothness-zero Hilbert target where it reduces to a weighted l2 sum.
    """
    phi = make_power(p)
    total = poly_norm(phi, f) ** q
    for n, band in _bands(f):
        if band.coeffs:
            total += 2.0 ** (q * n * s) * poly_norm(phi, band) ** q
        if n_max is not None and n >= n_max:
            break
    return float(total ** (1.0 / q))
