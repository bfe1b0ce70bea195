"""Moduli of continuity, the two Besov-Orlicz norms, and best approximation."""

import math

import numpy as np
import pytest

from orlicheck.besov import (BesovParams, MultiplierFamily,
                             best_approximation, besov_norm_classical,
                             besov_norm_tilde, check_norm_comparison,
                             check_sum_integral_sandwich, default_multiplier,
                             dyadic_band_norm, modulus)
from orlicheck.luxemburg import poly_norm
from orlicheck.trig import TrigPoly, band_kernel, convolve
from orlicheck.young import make_power, make_section7


def params_power2(psi=lambda t: 1.0, n_max=16, **kw):
    return BesovParams(make_power(2.0), psi, n_max=n_max, **kw)


def random_poly2(degree, seed):
    rng = np.random.default_rng(seed)
    return TrigPoly(2, {(k, l): complex(*rng.standard_normal(2))
                        for k in range(-degree, degree + 1)
                        for l in range(-degree, degree + 1)})


# ---------------------------------------------------------------------------
# modulus of continuity
# ---------------------------------------------------------------------------

def test_modulus_constant_is_zero():
    f = TrigPoly(2, {(0, 0): 3.0})
    assert modulus(f, 0.5, make_power(2.0)) == 0.0


def test_modulus_single_harmonic_closed_form_1d():
    # |e^{ih} - 1| = 2|sin(h/2)| is increasing on [0, pi]
    f = TrigPoly(1, {(1,): 1.0})
    phi = make_power(2.0)
    for t in (0.1, 0.5, 1.0, math.pi):
        assert modulus(f, t, phi) == pytest.approx(2.0 * math.sin(t / 2.0),
                                                   rel=1e-9)


def test_modulus_diagonal_harmonic_closed_form_2d():
    # sup_{|h|<=t} |e^{i(h1+h2)} - 1| = 2 sin(sqrt(2) t / 2) for sqrt(2)t <= pi
    f = TrigPoly(2, {(1, 1): 1.0})
    phi = make_power(2.0)
    for t in (0.2, 0.7, 1.5):
        expect = 2.0 * math.sin(min(math.sqrt(2.0) * t, math.pi) / 2.0)
        assert modulus(f, t, phi) == pytest.approx(expect, rel=1e-6)


def test_modulus_monotone_in_t():
    f = random_poly2(3, seed=0)
    phi = make_power(2.0)
    ts = [0.05, 0.1, 0.2, 0.39]
    vals = [modulus(f, t, phi) for t in ts]
    for v1, v2 in zip(vals, vals[1:]):
        assert v1 <= v2 + 1e-10


def test_modulus_bounded_by_twice_norm():
    f = random_poly2(4, seed=1)
    phi = make_power(2.0)
    bound = 2.0 * poly_norm(phi, f)
    for t in (0.1, 1.0, math.pi):
        assert modulus(f, t, phi) <= bound + 1e-10


@pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
def test_modulus_generic_phi_matches_power2_route(dim):
    # batched Parseval route against the quadrature route on the same
    # first-stage candidates (4 * radii radii in 1-D, radii x angles in 2-D)
    if dim == 1:
        rng = np.random.default_rng(2)
        f = TrigPoly(1, {(k,): complex(*rng.standard_normal(2))
                         for k in range(-2, 3)})
        hs = [(0.3 * j / 16,) for j in range(1, 17)]
    else:
        f = random_poly2(2, seed=2)
        hs = [(0.3 * j / 4 * math.cos(2 * math.pi * k / 16),
               0.3 * j / 4 * math.sin(2 * math.pi * k / 16))
              for j in range(1, 5) for k in range(16)]
    phi = make_power(2.0)
    a = modulus(f, 0.3, phi, angles=16, radii=4, refine=False)
    b = [poly_norm(phi, f.translate(h) - f, exact_l2=False) for h in hs]
    assert max(b) == pytest.approx(a, rel=1e-10)


# ---------------------------------------------------------------------------
# classical norm
# ---------------------------------------------------------------------------

def test_classical_norm_constant():
    f = TrigPoly(2, {(0, 0): 2.0})
    res = besov_norm_classical(f, params_power2())
    assert res.value == pytest.approx(2.0, rel=1e-12)
    assert all(t == 0.0 for t in res.terms)


def test_classical_norm_single_harmonic_series():
    # derived closed form: each term is 2 sin(min(sqrt(2) 2^{-n}, pi)/2)
    f = TrigPoly(2, {(1, 1): 1.0})
    n_max = 20
    res = besov_norm_classical(f, params_power2(n_max=n_max))
    expect = 1.0 + sum(
        2.0 * math.sin(min(math.sqrt(2.0) * 2.0 ** (-n), math.pi) / 2.0)
        for n in range(n_max + 1))
    assert res.value == pytest.approx(expect, rel=1e-5)
    assert res.tail == pytest.approx(res.terms[-1])


def test_classical_norm_truncation_stable():
    # geometric tail: doubling n_max moves the value below 1e-6 relative
    f = random_poly2(4, seed=3)
    psi = lambda t: t ** 0.5
    a = besov_norm_classical(f, params_power2(psi=psi, n_max=40)).value
    b = besov_norm_classical(f, params_power2(psi=psi, n_max=80)).value
    assert b == pytest.approx(a, rel=1e-6)


# ---------------------------------------------------------------------------
# band norm
# ---------------------------------------------------------------------------

def test_tilde_norm_constant_prefactor():
    psi = lambda t: 1.0 + math.log(t)
    f = TrigPoly(2, {(0, 0): 3.0})
    phi = make_power(2.0)
    res = besov_norm_tilde(f, BesovParams(phi, psi))
    lux = poly_norm(phi, f)
    assert res.value == pytest.approx(lux * (1.0 + psi(1.0) + psi(2.0)),
                                      rel=1e-12)


def test_tilde_norm_origin_poly_levels():
    # only levels 0 and 1 see the origin coefficient
    f = TrigPoly(2, {(0, 0): 1.0})
    res = besov_norm_tilde(f, params_power2())
    nonzero = [n for n, t in enumerate(res.terms) if t > 0]
    assert set(nonzero) <= {0, 1, 2, 3}
    assert res.tail == 0.0


def test_tilde_norm_exact_finite_sum():
    f = random_poly2(5, seed=4)
    res = besov_norm_tilde(f, params_power2())
    # terms vanish once the hole covers the degree; recompute one level
    g3 = convolve(band_kernel(3), f)
    assert res.terms[3] == pytest.approx(g3.l2_norm(), rel=1e-12)
    assert len(res.terms) >= 4


def test_tilde_norm_rejects_1d():
    with pytest.raises(ValueError):
        besov_norm_tilde(TrigPoly(1, {(1,): 1.0}), params_power2())


def test_band_norm_axioms():
    phi = make_power(2.0)
    params = params_power2()
    f = random_poly2(3, seed=5)
    g = random_poly2(3, seed=6)
    nf = besov_norm_tilde(f, params).value
    ng = besov_norm_tilde(g, params).value
    nsum = besov_norm_tilde(f + g, params).value
    assert nsum <= nf + ng + 1e-9
    c = -2.5
    assert besov_norm_tilde(c * f, params).value == pytest.approx(
        abs(c) * nf, rel=1e-9)


# ---------------------------------------------------------------------------
# best approximation
# ---------------------------------------------------------------------------

def test_best_approx_zero_when_degree_fits():
    f = random_poly2(3, seed=7)
    res = best_approximation(f, 3, make_power(2.0))
    assert res.exact_l2 == 0.0
    assert res.upper >= res.exact_l2


def test_best_approx_upper_dominates_exact():
    f = random_poly2(6, seed=8)
    for m in (1, 2, 4):
        res = best_approximation(f, m, make_power(2.0))
        assert res.upper >= res.exact_l2 - 1e-12


def test_best_approx_surviving_coefficient():
    f = TrigPoly(2, {(3, 0): 1.0, (0, 5): 1.0})
    res = best_approximation(f, 4, make_power(2.0))
    assert res.exact_l2 == pytest.approx(1.0, rel=1e-12)


def test_best_approx_mean_competitor_at_zero():
    f = random_poly2(2, seed=9)
    res = best_approximation(f, 0, make_power(2.0))
    outside = math.sqrt(sum(abs(v) ** 2 for k, v in f.coeffs.items()
                            if k != (0, 0)))
    assert res.exact_l2 == pytest.approx(outside, rel=1e-12)
    assert res.upper == pytest.approx(outside, rel=1e-12)


def test_multiplier_family_invariants():
    fam = default_multiplier()
    for m in (1, 2, 5, 8):
        pm = fam.coefficients(m)
        assert pm.coeff((0, 0)) == pytest.approx(1.0)
        assert all(max(abs(k), abs(l)) <= m for k, l in pm.support())


# ---------------------------------------------------------------------------
# sum-integral sandwich
# ---------------------------------------------------------------------------

def test_sandwich_single_harmonic():
    f = TrigPoly(2, {(1, 1): 1.0})
    rep = check_sum_integral_sandwich(f, params_power2(n_max=14),
                                      np.geomspace(1.0, 2.0 ** 16, 120))
    assert rep.passed
    assert rep.quantities["margin_lower"] >= 0
    assert rep.quantities["margin_upper"] >= 0


def test_sandwich_constant_trivial():
    f = TrigPoly(2, {(0, 0): 1.0})
    rep = check_sum_integral_sandwich(f, params_power2(),
                                      np.geomspace(1.0, 100.0, 20))
    assert rep.passed
    assert rep.quantities["sum"] == 0.0


def test_sandwich_random_batch():
    psi = lambda t: t ** 0.5
    grid = np.geomspace(1.0, 2.0 ** 15, 90)
    for seed in range(20):
        f = random_poly2(3, seed=100 + seed)
        rep = check_sum_integral_sandwich(
            f, params_power2(psi=psi, n_max=13, h_angles=32, h_radii=6), grid)
        assert rep.passed, (seed, rep.quantities)


# ---------------------------------------------------------------------------
# norm comparison
# ---------------------------------------------------------------------------

def test_comparison_constant_ratio_is_prefactor():
    psi = lambda t: 1.0 + 0.5 * math.log(t)
    f = TrigPoly(2, {(0, 0): 4.0})
    rep = check_norm_comparison(f, BesovParams(make_power(2.0), psi))
    assert rep.passed
    assert rep.quantities["ratio"] == pytest.approx(
        rep.quantities["bar_norm_prefactor"], rel=1e-10)


def test_comparison_per_level_random_degree32():
    f = random_poly2(32, seed=11)
    rep = check_norm_comparison(f, params_power2(n_max=8, h_angles=32,
                                                 h_radii=6))
    assert rep.passed
    assert rep.margin >= 0.0
    levels = rep.quantities["levels"]
    assert any(lv["band_norm"] > 0 for lv in levels)


def test_comparison_zero_band_levels_trivially_pass():
    f = TrigPoly(2, {(1, 0): 1.0})
    rep = check_norm_comparison(f, params_power2())
    zero_levels = [lv for lv in rep.quantities["levels"]
                   if lv["band_norm"] == 0.0]
    assert zero_levels
    assert all(lv["margin"] >= 0.0 for lv in zero_levels)


def test_dyadic_band_norm_hilbert_case():
    f = random_poly2(3, seed=12)
    val = dyadic_band_norm(f, s=0.0, p=2.0, q=2.0)
    expect = math.sqrt(f.l2_norm() ** 2 + sum(
        convolve(band_kernel(n), f).l2_norm() ** 2 for n in range(9)))
    assert val == pytest.approx(expect, rel=1e-10)
