"""Kernels, band decomposition, frames, and grid sampling."""

import math

import numpy as np
import pytest

from orlicheck.luxemburg import norm_fun
from orlicheck.sampling import random_poly_on_frame
from orlicheck.trig import (TrigPoly, band_kernel, convolve, fejer, frame,
                            plateau_kernel, poly_from_coeff_list, poly_l1,
                            poly_to_coeff_list, refine_on_grid,
                            sample_on_grid)
from orlicheck.young import make_section7


# ---------------------------------------------------------------------------
# Fejer kernel
# ---------------------------------------------------------------------------

def test_fejer_value_at_zero_is_order_plus_one():
    for n in (0, 1, 2, 5, 16):
        f = fejer(n)
        assert f.eval_at(0.0) == pytest.approx(n + 1, rel=1e-12)


def test_fejer_mean_coefficient():
    assert fejer(7).coeff(0) == pytest.approx(1.0)


def test_fejer_pointwise_nonnegative():
    f = fejer(2)
    x = 2.0 * np.pi * np.arange(1024) / 1024
    vals = f.eval_at(x)
    assert np.max(np.abs(vals.imag)) < 1e-12
    assert np.min(vals.real) >= -1e-12


def test_fejer_l1_norm_is_one():
    assert poly_l1(fejer(6)) == pytest.approx(1.0, rel=1e-8)


# ---------------------------------------------------------------------------
# plateau kernels (product structure)
# ---------------------------------------------------------------------------

def test_plateau_degenerate_level():
    assert plateau_kernel(-1).coeffs == {(0, 0): 1.0 + 0j}
    # k = 0 keeps the product structure: all nine coefficients on {-1,0,1}^2
    f0 = plateau_kernel(0)
    assert f0.support() == {(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)}
    assert all(v == 1.0 for v in f0.coeffs.values())


@pytest.mark.parametrize("k", range(0, 7))
def test_plateau_factor_is_one_on_inner_square(k):
    # enumeration oracle: Lambda(m) + Lambda(m - 2^k) + Lambda(m + 2^k) = 1
    # for |m| <= 2^k with Lambda the triangle of half-width 2^k
    f = plateau_kernel(k)
    m = 2 ** k
    for a in range(-m, m + 1):
        assert f.coeff((a, 0)) == pytest.approx(1.0, abs=1e-14)
        assert f.coeff((a, m)) == pytest.approx(f.coeff((0, m)), abs=1e-14)
    tri = lambda j: max(0.0, 1.0 - abs(j) / m)
    for a in range(-2 * m - 1, 2 * m + 2):
        expect = tri(a) + tri(a - m) + tri(a + m)
        assert f.coeff((a, 0)).real == pytest.approx(expect, abs=1e-14)


def test_plateau_support_bound():
    for k in range(1, 6):
        f = plateau_kernel(k)
        bound = 2 ** (k + 1)
        assert f.coeff((bound, 0)) == 0
        assert all(max(abs(a), abs(b)) < bound for a, b in f.support())


def test_plateau_l1_at_most_nine():
    for k in range(1, 7):
        assert poly_l1(plateau_kernel(k)) <= 9.0 + 1e-6


# ---------------------------------------------------------------------------
# band kernels
# ---------------------------------------------------------------------------

def test_band_base_cases():
    assert band_kernel(0).coeffs == {(0, 0): 1.0 + 0j}
    assert band_kernel(1) == plateau_kernel(0)


def test_band_telescoping_identity():
    # sum_{j=0}^{K+1} b_j = plateau_K + plateau_{K-1} exactly
    for K in range(0, 7):
        total = TrigPoly(2, {})
        for j in range(K + 2):
            total = total + band_kernel(j)
        expect = plateau_kernel(K) + plateau_kernel(K - 1)
        keys = set(total.support()) | set(expect.support())
        for key in keys:
            assert abs(total.coeff(key) - expect.coeff(key)) <= 1e-14


@pytest.mark.parametrize("n", range(3, 9))
def test_band_vanishes_on_hole(n):
    # enumeration from the triangle identity: coefficients are zero on the
    # closed square of half-width 2^{n-3}
    b = band_kernel(n)
    hole = 2 ** (n - 3)
    for a in range(-hole, hole + 1):
        for c in (-hole, 0, hole):
            assert b.coeff((a, c)) == 0
    assert all(max(abs(k), abs(l)) > hole for k, l in b.support())


@pytest.mark.parametrize("n", range(3, 9))
def test_band_support_inside_frame(n):
    fr = frame(n)
    assert band_kernel(n).support() <= set(fr.indices)


def test_band_l1_at_most_eighteen():
    for k in range(0, 9):
        assert poly_l1(band_kernel(k)) <= 18.0 + 1e-6


def test_band_origin_coefficients():
    # levels 0 and 1 carry coefficient 1 at the origin, level >= 2 carry 0
    assert band_kernel(0).coeff((0, 0)) == 1.0
    assert band_kernel(1).coeff((0, 0)) == 1.0
    for n in range(2, 8):
        assert band_kernel(n).coeff((0, 0)) == 0


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------

def test_frame_cardinalities_by_enumeration():
    # independent lattice enumeration
    def count(n):
        outer, hole = 2 ** n, 2 ** (n - 3)
        return sum(1 for k in range(-outer + 1, outer)
                   for l in range(-outer + 1, outer)
                   if not (abs(k) <= hole and abs(l) <= hole))

    assert frame(3).omega == count(3) == 15 ** 2 - 3 ** 2 == 216
    assert frame(4).omega == count(4) == 31 ** 2 - 5 ** 2 == 936
    assert frame(5).omega == count(5)


def test_frame_grid_spacing():
    for n in (3, 4, 5):
        fr = frame(n)
        assert fr.grid_size == 2 ** (n + 1) - 1
        assert fr.grid_spacing == pytest.approx(2.0 * np.pi / (2 ** (n + 1) - 1))


def test_frame_sqrt_omega_bound():
    for n in range(3, 9):
        assert math.sqrt(frame(n).omega) <= 2.0 * 2 ** n


def test_frame_grid_to_omega_ratio():
    for n in range(3, 9):
        fr = frame(n)
        assert fr.grid_size ** 2 / fr.omega <= 4.0 / 3.0


def test_frame_rejects_small_level():
    with pytest.raises(ValueError):
        frame(2)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def test_convolve_with_origin_kernel_projects_mean():
    rng = np.random.default_rng(0)
    f = TrigPoly(2, {(k, l): complex(*rng.standard_normal(2))
                     for k in range(-3, 4) for l in range(-3, 4)})
    proj = convolve(plateau_kernel(-1), f)
    assert proj.coeffs == {(0, 0): f.coeff((0, 0))}


def test_convolve_kills_low_degree_inside_hole():
    rng = np.random.default_rng(1)
    for n in (5, 6):
        deg = 2 ** (n - 3)
        f = TrigPoly(2, {(k, l): complex(*rng.standard_normal(2))
                         for k in range(-deg, deg + 1)
                         for l in range(-deg, deg + 1)})
        assert convolve(band_kernel(n), f).coeffs == {}


def test_convolve_parseval():
    rng = np.random.default_rng(2)
    f = TrigPoly(2, {(k, l): complex(*rng.standard_normal(2))
                     for k in range(-8, 9) for l in range(-8, 9)})
    g = band_kernel(4)
    conv = convolve(g, f)
    expect = math.sqrt(sum(abs(g.coeff(key) * f.coeff(key)) ** 2
                           for key in f.support()))
    assert conv.l2_norm() == pytest.approx(expect, rel=1e-12)


# ---------------------------------------------------------------------------
# sampling on frame grids
# ---------------------------------------------------------------------------

def test_sample_constant():
    fr = frame(3)
    f = TrigPoly(2, {(0, 0): 2.0})
    # constants are not frame-supported, but sampling is defined regardless
    vals = sample_on_grid(f, fr)
    assert np.allclose(vals, 2.0)


def test_sample_single_harmonic_modulus_one():
    fr = frame(3)
    f = TrigPoly(2, {(1, 1): 1.0})
    vals = sample_on_grid(f, fr)
    assert np.allclose(np.abs(vals), 1.0, atol=1e-12)


def test_sample_matches_direct_summation():
    rng = np.random.default_rng(3)
    fr = frame(3)
    support = [fr.indices[i]
               for i in rng.choice(len(fr.indices), size=25, replace=False)]
    f = TrigPoly(2, {key: complex(*rng.standard_normal(2)) for key in support})
    fast = sample_on_grid(f, fr)
    xs = np.array([fr.grid_coordinate(k) for k, _ in fr.indices])
    ys = np.array([fr.grid_coordinate(l) for _, l in fr.indices])
    direct = f.eval_at(xs, ys)
    assert np.max(np.abs(fast - direct)) < 1e-10


# ---------------------------------------------------------------------------
# polynomial mechanics
# ---------------------------------------------------------------------------

def test_translate_matches_shifted_evaluation():
    rng = np.random.default_rng(4)
    f = TrigPoly(1, {(k,): complex(*rng.standard_normal(2))
                     for k in range(-5, 6)})
    h = 0.7
    x = np.linspace(0.0, 2.0 * np.pi, 17)
    assert np.allclose(f.translate(h).eval_at(x), f.eval_at(x + h))


def test_translate_matches_shifted_evaluation_2d():
    rng = np.random.default_rng(6)
    f = TrigPoly(2, {(k, l): complex(*rng.standard_normal(2))
                     for k in range(-2, 3) for l in range(-2, 3)})
    h = (0.7, -0.4)
    x, y = np.linspace(0.0, 2.0 * np.pi, 17), np.linspace(1.0, 3.0, 17)
    assert np.allclose(f.translate(h).eval_at(x, y),
                       f.eval_at(x + h[0], y + h[1]))


def test_sample_uniform_rejects_aliasing_grid():
    f = TrigPoly(1, {(4,): 1.0})
    with pytest.raises(ValueError):
        f.sample_uniform(7)


def test_coeff_list_roundtrip():
    rng = np.random.default_rng(5)
    f = TrigPoly(2, {(k, l): complex(*rng.standard_normal(2))
                     for k in range(-2, 3) for l in range(-2, 3)})
    clone = poly_from_coeff_list(poly_to_coeff_list(f), dim=2)
    assert clone == f
    g = TrigPoly(1, {(-1,): 1.0j, (2,): 0.5})
    assert poly_from_coeff_list(poly_to_coeff_list(g), dim=1) == g


def test_evaluation_matches_definition():
    f = TrigPoly(2, {(1, 0): 1.0, (0, 1): 2.0})
    x, y = 0.3, 1.1
    expect = np.exp(1j * x) + 2.0 * np.exp(1j * y)
    assert f.eval_at(x, y) == pytest.approx(expect)


# ---------------------------------------------------------------------------
# grid refinement
# ---------------------------------------------------------------------------

def test_refine_on_grid_converges_for_fejer_l1():
    # poly_l1 defaults: 8 * (6 + 1) = 56 points, one doubling settles it
    value, grid, converged = refine_on_grid(
        fejer(6), lambda v: float(np.mean(np.abs(v))), rel_tol=1e-6,
        max_doublings=3, max_grid=4096)
    assert converged
    assert grid == 112
    assert value == pytest.approx(1.0, rel=1e-8)


def test_refine_on_grid_reports_unconverged_section7_norm():
    # the function norm of the Orlicz sampling check: the 64- and 128-point
    # grids differ by about 1e-4 relative, above the 1e-5 asked for
    phi = make_section7(0.05)
    f = random_poly_on_frame(3, seed=5)
    value, grid, converged = refine_on_grid(
        f, lambda v: norm_fun(phi, v), rel_tol=1e-5, max_doublings=1,
        max_grid=1024)
    assert not converged
    assert grid == 128
    assert value == pytest.approx(14.89687, rel=1e-6)
