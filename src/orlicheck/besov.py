"""Moduli of continuity and the two dyadic Besov-Orlicz norms on the torus.

The classical norm is ||f||_{L_Phi} plus the weighted dyadic sum of integral
moduli of continuity; the band norm replaces each modulus by the L_Phi norm
of the band-kernel convolution and is an exact finite sum for trigonometric
polynomials (bands vanish once the hole swallows the spectrum).  A smooth
multiplier family provides computable upper bounds for the best approximation
by box-spectrum polynomials; in the Hilbert case the spectral projection is
optimal and gives the exact value.

The modulus takes one radius or a 1-D array of radii, and a sweep of radii
(each integrand of the sum-integral sandwich, the dyadic sum of the
classical norm) is one modulus call: its two stages, the polar grid and the
refinement around each radius's argmax, are each one batched shift-norm
call over a group of radii.  Under Phi = t^2 each radius gets the bits it
gets alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .luxemburg import poly_norm, poly_norms
from .reports import VerificationReport, worst_of
from .trig import (TrigPoly, _integer, _radius, _times, band_kernel,
                   coefficient_boxes, convolve, poly_from_box)
from .young import YoungFunction

__all__ = [
    "BesovParams",
    "BesovNorm",
    "multiplier",
    "modulus",
    "besov_norm_classical",
    "besov_norm_tilde",
    "BestApprox",
    "best_approximation",
    "check_sum_integral_sandwich",
    "check_norm_comparison",
]


def _count(n, name: str) -> int:
    """n as an int; a ValueError naming it unless it is an integer >= 1."""
    if _integer(n, name) < 1:
        raise ValueError(f"{name} must be >= 1")
    return int(n)


@dataclass(frozen=True)
class BesovParams:
    """Ingredients of a Besov-Orlicz norm computation.

    ``psi`` is an increasing continuous weight evaluated on [1, oo) only
    (dyadic arguments 2^n and the continuous comparison integrals).
    ``n_max`` truncates the classical dyadic sum; the band sum needs no
    truncation.  ``h_angles`` x ``h_radii`` is the polar search grid of the
    modulus of continuity, which always takes its local refinement pass;
    each is an integer >= 1, and ``n_max`` one >= 2, or ValueError.
    """

    phi: YoungFunction
    psi: Callable[[float], float]
    n_max: int = 16
    h_angles: int = 64
    h_radii: int = 8

    def __post_init__(self):
        if _integer(self.n_max, "n_max") < 2:
            raise ValueError("n_max must be >= 2")
        _count(self.h_angles, "h_angles")
        _count(self.h_radii, "h_radii")


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


# ---------------------------------------------------------------------------
# modulus of continuity
# ---------------------------------------------------------------------------

# A group of radii whose stage-1 polar grid holds at most about this many
# shift candidates is one _shift_norms call per stage.
_GRID_ROWS = 2048
# Entries per row chunk of the Phi = t^2 sine matrix (64 KB of float64).
_SINE_BLOCK = 8192


def _shift_norms(f: TrigPoly, hs: np.ndarray,
                 phi: YoungFunction) -> np.ndarray:
    """||f(. + h) - f||_{L_Phi} for each row h of the (count, dim) array hs.

    For Phi = t^2 Parseval gives sum_k |c_k|^2 4 sin^2(k.h / 2), whose terms
    are even in k.  It is summed over the mirror-folded spectrum
    (TrigPoly._folded: one k per pair {k, -k}, weight |c_k|^2 + |c_{-k}|^2,
    no zero mode) in real arithmetic, as 2 sqrt(sin^2(hs K^T / 2) @ w), in
    row chunks of about _SINE_BLOCK entries of one reused sine matrix.  A
    row's value has the same bits whatever other rows share its call, which
    a BLAS product alone does not promise: each h/2 is first rounded to
    53 - b bits by Veltkamp's split (a change of at most 2^(b-53) relative),
    b the bit length of the largest |k|, so that every product of a
    coordinate and an integer k_i is exact and each entry of hs K^T / 2 is
    rounded once in any order of evaluation, and each row is summed on its
    own (np.vecdot).  Otherwise the differences are normed by quadrature in
    one batch (luxemburg.poly_norms) on the grids of f, and no polynomial
    is built per difference: as e^{ik.h} - 1 = 2i sin(k.h/2) e^{ik.h/2},
    its coefficients are those of f.translate(h/2) times 2i sin(k.h/2),
    with k.h/2 formed as translate forms its phase, so each is as exact as
    its sine, where c_k e^{ik.h} - c_k is off by about eps/|k.h| relative.
    """
    half = hs / 2.0
    if phi.is_square:
        pts, w = f._folded
        b = int(np.abs(pts).max(initial=0)).bit_length()
        hi = half * (2.0 ** b + 1.0)
        hi -= hi - half
        out = np.empty(len(hs))
        step = max(1, _SINE_BLOCK // max(len(w), 1))
        s = np.empty((min(step, len(hs)), len(w)))
        for r in range(0, len(hs), step):
            h = hi[r:r + step]
            blk = np.matmul(h, pts.T, out=s[:len(h)])
            np.sin(blk, out=blk)
            blk *= blk
            np.vecdot(blk, w, out=out[r:r + step])
        return 2.0 * np.sqrt(out)
    boxes = coefficient_boxes([f.translate(h) for h in half], f.degree)
    axis = np.arange(-f.degree, f.degree + 1)
    kh = [np.multiply.outer(half[:, i], axis) for i in range(f.dim)]
    kh = kh[0] if f.dim == 1 else kh[0][:, :, None] + kh[1][:, None, :]
    return poly_norms(phi, _times(boxes, 2j * np.sin(kh)))


def _polar(dim: int, rs: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Shift candidates of each radius t, t by t and radius-major within
    one t: the radii rs (one row per t) themselves in 1-D, their polar grid
    with the angles thetas (one row per t, or one row for all) in 2-D."""
    if dim == 1:
        return rs.reshape(-1, 1)
    rs, thetas = rs[:, :, None], thetas[:, None, :]
    return np.stack([(rs * np.cos(thetas)).ravel(),
                     (rs * np.sin(thetas)).ravel()], axis=1)


def _sup_shift_norms(f: TrigPoly, ts: np.ndarray, phi: YoungFunction,
                     n_r: int, thetas: np.ndarray,
                     refine: bool) -> np.ndarray:
    """modulus of f at each radius of ts, from the polar grid of n_r radii
    and the angles thetas and, when refine is set, one pass around each
    argmax: two _shift_norms calls for all of ts."""
    rows = np.arange(len(ts))
    n_th = len(thetas)
    rs = ts[:, None] * np.arange(1, n_r + 1) / n_r
    vals = _shift_norms(f, _polar(f.dim, rs, thetas[None]), phi)
    vals = vals.reshape(len(ts), -1)
    best = np.argmax(vals, axis=1)
    best_v = vals[rows, best]
    if not refine:
        return best_v
    r0, th0 = rs[rows, best // n_th], thetas[best % n_th]
    dr, dth = ts / n_r, 2.0 * np.pi / n_th
    rr = np.linspace(np.maximum(r0 - dr, 1e-12 * ts), np.minimum(r0 + dr, ts),
                     9 if f.dim == 1 else 5, axis=1)
    tt = np.linspace(th0 - dth, th0 + dth, 9, axis=1)
    fine = _shift_norms(f, _polar(f.dim, rr, tt), phi)
    return np.maximum(best_v, fine.reshape(len(ts), -1).max(axis=1))


def modulus(f: TrigPoly, t: float | np.ndarray, phi: YoungFunction, *,
            angles: int = 64, radii: int = 8,
            refine: bool = True) -> float | np.ndarray:
    """sup over |h| <= t of ||f(. + h) - f||_{L_Phi}, by polar grid search,
    for a radius t (a float back) or a 1-D array of radii (an array back).

    Translation is exact in coefficients (phase factors); the supremum is
    approximated on ``angles`` x ``radii`` polar candidates including the
    circle |h| = t (4 * ``radii`` radii in 1-D), with one local refinement
    pass around the argmax (5 radii x 9 angles in 2-D, 9 radii in 1-D).
    A scalar t is a one-element array.  The radii go in groups whose grid
    holds at most about _GRID_ROWS (2048) candidates, one radius at least,
    and each stage, the grid and then the refinement around every argmax
    of the group, is one batched _shift_norms call: for Phi = t^2 a real
    sine matrix over the mirror-folded spectrum, worked in chunks of about
    _SINE_BLOCK (8192) entries, otherwise one batched quadrature of the
    differences.  So a sweep of radii costs a few calls; for Phi = t^2
    each radius gets the bits it gets alone (see _shift_norms), and the
    quadrature route shares only the sampling products between radii.
    For low-degree polynomials the objective is smooth and the grid is
    observed-converged (double ``angles``/``radii`` to check).  A radius
    that is not a finite number > 0 raises ValueError, and so do an array
    of more than one axis and ``angles`` or ``radii`` not an integer >= 1.
    """
    angles, radii = _count(angles, "angles"), _count(radii, "radii")
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1:
        raise ValueError("shift radii must be a scalar or a 1-D array")
    flat = ts.reshape(-1)
    if not np.all((flat > 0.0) & (flat < math.inf)):
        raise ValueError("shift radius t must be positive")
    out = np.zeros(flat.shape)
    if f.box.any():
        n_r = 4 * radii if f.dim == 1 else radii
        n_th = 1 if f.dim == 1 else angles
        thetas = 2.0 * np.pi * np.arange(n_th) / n_th
        step = max(1, _GRID_ROWS // (n_r * n_th))
        for g in range(0, flat.size, step):
            out[g:g + step] = _sup_shift_norms(f, flat[g:g + step], phi, n_r,
                                               thetas, refine)
    return float(out[0]) if ts.ndim == 0 else out


# ---------------------------------------------------------------------------
# the two norms
# ---------------------------------------------------------------------------

def _dyadic_terms(f: TrigPoly, params: BesovParams) -> list[float]:
    """psi(2^n) * modulus(f, 2^{-n}) for n = 0, ..., n_max, the moduli
    from one modulus call."""
    om = modulus(f, np.ldexp(1.0, -np.arange(params.n_max + 1)), params.phi,
                 angles=params.h_angles, radii=params.h_radii)
    return [float(params.psi(2.0 ** n)) * float(v) for n, v in enumerate(om)]


def _band_norms(f: TrigPoly, phi: YoungFunction) -> list[float]:
    """||b_n * f||_{L_Phi} for n = 0, 1, ... through the first n >= 3 with
    2^{n-3} >= degree f, that is 3 + ceil(log2(degree f)) or 3 for degree
    <= 1; every later band is zero.  A band without coefficients is 0."""
    if f.dim != 2:
        raise ValueError("the band norm is defined for 2-D polynomials")
    last = 3 + max(f.degree - 1, 0).bit_length()
    bands = (convolve(band_kernel(n), f) for n in range(last + 1))
    return [poly_norm(phi, b) if b.box.any() else 0.0 for b in bands]


def _band_sum(lux: float, params: BesovParams,
              band_norms: list[float]) -> BesovNorm:
    """The band norm of f from lux = ||f||_{L_Phi} and its _band_norms."""
    terms = [float(params.psi(2.0 ** n)) * v for n, v in enumerate(band_norms)]
    return BesovNorm(lux + float(np.sum(terms)), lux, tuple(terms), 0.0)


def besov_norm_classical(f: TrigPoly, params: BesovParams) -> BesovNorm:
    """||f||_{L_Phi} + sum_{n=0}^{n_max} psi(2^n) * modulus(f, 2^{-n}).

    The reported tail is the final dyadic term; for polynomials with a
    sub-linear weight the terms decay geometrically, so it bounds the
    truncation error up to a constant.
    """
    lux = poly_norm(params.phi, f)
    terms = _dyadic_terms(f, params)
    return BesovNorm(lux + float(np.sum(terms)), lux, tuple(terms), terms[-1])


def besov_norm_tilde(f: TrigPoly, params: BesovParams) -> BesovNorm:
    """||f||_{L_Phi} + sum_n psi(2^n) ||b_n * f||_{L_Phi}, an exact finite sum.

    The band kernel b_n annihilates spectra inside [-2^{n-3}, 2^{n-3}]^2, so
    the sum stops once that hole covers the degree of f.
    """
    band_norms = _band_norms(f, params.phi)
    return _band_sum(poly_norm(params.phi, f), params, band_norms)


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


def multiplier(m: int) -> TrigPoly:
    """Gaussian-damped smooth multiplier phi_m with box spectrum.

    Coefficients are eta(k/m, l/m) * exp(-(k^2 + l^2)/m^2) with eta the
    product of two _bump1 factors, supported in the unit square and with
    eta(0, 0) = 1, so supp(phi_m) lies in [-m, m]^2 and the mean is
    preserved exactly.
    """
    m = _count(m, "multiplier order")
    axis = np.arange(-m, m + 1)
    wk = _bump1(axis / m)
    gauss = np.exp(-(axis ** 2) / m ** 2)
    return poly_from_box(np.multiply.outer(wk, wk) * gauss[:, None] * gauss)


@dataclass(frozen=True)
class BestApprox:
    """Upper bound (and exact Hilbert value) for the best box approximation.

    ``upper`` is ||f - phi_m * f||_{L_Phi}; ``exact_l2`` is the energy outside
    the box, the true infimum when Phi is the square function, else None.
    """

    upper: float
    exact_l2: float | None


def best_approximation(f: TrigPoly, m: int,
                       phi: YoungFunction) -> BestApprox:
    """Distance from f to polynomials with spectrum in [-m, m]^2.

    m = 0 uses the mean-value competitor (the only box polynomial is a
    constant); m >= 1 uses the smooth multiplier approximant.
    """
    if f.dim != 2:
        raise ValueError("best approximation is defined for 2-D polynomials")
    m = _integer(m, "box size")
    if m < 0:
        raise ValueError("box size must be >= 0")
    if m == 0:
        approx = TrigPoly(2, {(0, 0): f.coeff((0, 0))})
    else:
        approx = convolve(multiplier(m), f)
    upper = poly_norm(phi, f - approx)
    exact = None
    if phi.is_square:
        exact = float(np.linalg.norm(f.box[_radius(f.degree, 2) > m]))
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
    Both integrals use trapezoid quadrature on the supplied t grid; each
    integrand, and the dyadic sum, takes its moduli from one modulus call.
    """
    t = np.asarray(sorted(t_grid), dtype=float)
    if t.size < 2:
        raise ValueError(f"t grid needs at least 2 nodes, got {t.size}")
    if t[0] < 1.0:
        raise ValueError("t grid must start at or above 1")

    def om(tt: np.ndarray) -> np.ndarray:
        return modulus(f, tt, params.phi, angles=params.h_angles,
                       radii=params.h_radii)

    psi_t = np.array([params.psi(float(v)) for v in t])
    low_vals = psi_t / t * om(1.0 / (2.0 * t))
    up_vals = psi_t / t * om(2.0 / t)
    i_low = float(np.trapezoid(low_vals, t))
    i_up = float(np.trapezoid(up_vals, t))

    terms = _dyadic_terms(f, params)
    s = float(np.sum(terms))

    # Empirical power-decay tail of the upper integrand past T.
    tail_up = 0.0
    if up_vals[-1] > 0 and up_vals[-2] > 0:
        beta = math.log(up_vals[-2] / up_vals[-1]) / math.log(t[-1] / t[-2])
        if beta > 1.0:
            tail_up = float(up_vals[-1] * t[-1] / (beta - 1.0))

    slack = 1e-9 * max(s, 1e-300)
    margin_low = s - 0.5 * i_low
    margin_up = 2.0 * i_up - s
    return worst_of(
        "sum-integral-sandwich", [margin_low, margin_up], None,
        [slack, 2.0 * tail_up + slack],
        inputs={"phi": repr(params.phi), "n_max": params.n_max,
                "t_max": float(t[-1]), "n_nodes": int(t.size)},
        quantities={"sum": s, "sum_tail": terms[-1],
                    "lower_integral": i_low, "upper_integral": i_up,
                    "upper_integral_tail_estimate": tail_up,
                    "margin_lower": margin_low, "margin_upper": margin_up},
        tolerance="margins >= -1e-9 relative, upper side allows 2x integral tail",
    )


def check_norm_comparison(f: TrigPoly,
                          params: BesovParams) -> VerificationReport:
    """Band norm against the classical norm, with the per-level certificate.

    Reports the ratio of the two norms and checks for every level n >= 2 that
    ||b_n * f||_{L_Phi} <= 36 * E(f, 2^{n-3}) where E is the computable
    best-approximation upper bound (the 36 comes from the L1 bound 18 of the
    band kernels via the convolution inequality).  Also echoes the constant
    prefactor 1 + psi(1) + psi(2) of the intermediate norm.
    """
    band_norms = _band_norms(f, params.phi)
    lux = poly_norm(params.phi, f)
    tilde = _band_sum(lux, params, band_norms)
    classical = lux + float(np.sum(_dyadic_terms(f, params)))
    ratio = tilde.value / classical if classical > 0 else 1.0

    levels = []
    for n, lhs in enumerate(band_norms[2:], start=2):
        m = 2 ** (n - 3) if n >= 3 else 0
        rhs = 36.0 * best_approximation(f, m, params.phi).upper
        levels.append({"n": n, "m": m, "band_norm": lhs, "bound": rhs,
                       "margin": rhs - lhs})

    prefactor = 1.0 + float(params.psi(1.0)) + float(params.psi(2.0))
    return worst_of(
        "besov-norm-comparison", [lv["margin"] for lv in levels], None,
        1e-9 * max(classical, 1e-300),
        inputs={"phi": repr(params.phi), "degree": f.degree},
        quantities={"band_norm": tilde.value, "classical_norm": classical,
                    "ratio": ratio, "bar_norm_prefactor": prefactor,
                    "levels": levels},
        tolerance="per-level 36*E bound with 1e-9 relative slack",
    )

