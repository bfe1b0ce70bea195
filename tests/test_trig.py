"""Kernels, band decomposition, frames, and grid sampling."""

import functools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orlicheck import trig
from orlicheck.luxemburg import norm_fun
from orlicheck.sampling import (_coefficients, random_poly_1d,
                                random_poly_on_frame)
from orlicheck.trig import (TrigPoly, band_kernel, convolve, fejer, frame,
                            plateau_kernel, poly_l1, refine_on_grid,
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
    assert set(f0.coeffs) == {(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)}
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
        assert all(max(abs(a), abs(b)) < bound for a, b in f.coeffs)


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
        keys = set(total.coeffs) | set(expect.coeffs)
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
    assert all(max(abs(k), abs(l)) > hole for k, l in b.coeffs)


@pytest.mark.parametrize("n", range(3, 9))
def test_band_support_inside_frame(n):
    fr = frame(n)
    assert set(band_kernel(n).coeffs) <= set(map(tuple, fr.ks.tolist()))


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
    # e^{ix} sampled on the frame: frame neighbours k, k + 1 sit one grid
    # step 2 pi / (2^{n+1} - 1) apart
    for n in (3, 4, 5):
        fr = frame(n)
        assert fr.grid_size == 2 ** (n + 1) - 1
        vals = sample_on_grid(TrigPoly(2, {(1, 0): 1.0}), fr)
        step = np.flatnonzero(np.diff(fr.ks[:, 0]) == 1)
        np.testing.assert_allclose(vals[step + 1] / vals[step],
                                   np.exp(2j * np.pi / fr.grid_size),
                                   rtol=1e-12)


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
                           for key in f.coeffs))
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
    support = [tuple(fr.ks[i])
               for i in rng.choice(fr.omega, size=25, replace=False)]
    f = TrigPoly(2, {key: complex(*rng.standard_normal(2)) for key in support})
    fast = sample_on_grid(f, fr)
    # the frame index k sits at the angle 2 pi (k + 2^n - 1) / (2^{n+1} - 1)
    xs, ys = (2.0 * np.pi * (fr.ks.T + 2 ** fr.level - 1)
              / (2 ** (fr.level + 1) - 1))
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


def test_translate_rounds_like_python_complex_products():
    # NumPy's complex multiply may fuse one real product into the sum, which
    # moves the last bit of some coefficients on some CPUs
    f = random_poly_1d(3, 0)
    for h in np.geomspace(1e-3, 1.0, 451):
        unit = np.exp(1j * (f.ks[:, 0] * h))
        want = [complex(c) * complex(e) for c, e in zip(f.cs, unit)]
        assert f.translate(h).cs.tolist() == want, h


@st.composite
def polys_and_grids(draw):
    dim = draw(st.sampled_from([1, 2]))
    degree = draw(st.integers(min_value=0, max_value=6))
    m = draw(st.integers(min_value=2 * degree + 1, max_value=40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    box = np.arange(-degree, degree + 1)
    keys = np.stack(np.meshgrid(*(box,) * dim, indexing="ij"),
                    axis=-1).reshape(-1, dim)
    coeffs = rng.standard_normal(len(keys)) + 1j * rng.standard_normal(len(keys))
    return TrigPoly(dim, dict(zip(map(tuple, keys.tolist()), coeffs))), m


@settings(max_examples=60, deadline=None)
@given(polys_and_grids())
def test_sample_uniform_matches_direct_summation(case):
    f, m = case
    axis = 2.0 * np.pi * np.arange(m) / m
    points = np.meshgrid(*(axis,) * f.dim, indexing="ij")
    direct = f.eval_at(*points)
    values = f.sample_uniform(m)
    assert values.shape == (m,) * f.dim
    assert np.max(np.abs(values - direct)) < 1e-12
    zero = TrigPoly(f.dim, {}).sample_uniform(m)
    assert zero.shape == (m,) * f.dim
    assert not np.any(zero)


@st.composite
def factor_cases(draw):
    """Random complex full-rank polynomials, explicit sums of 1-3 products
    of 1-D factors, the zero polynomial and a constant."""
    dim = draw(st.sampled_from([1, 2]))
    degree = draw(st.integers(min_value=0, max_value=6))
    kind = draw(st.sampled_from(["full", "products", "zero", "constant"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    w = 2 * degree + 1
    noise = lambda *shape: (rng.standard_normal(shape)
                            + 1j * rng.standard_normal(shape))
    box = np.zeros((w,) * dim, dtype=complex)
    if kind == "full":
        box = noise(*box.shape)
    elif kind == "products":
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            box += functools.reduce(np.multiply.outer,
                                    [noise(w) for _ in range(dim)])
    elif kind == "constant":
        box[(degree,) * dim] = noise(1)[0]
    return TrigPoly(dim, {tuple(np.subtract(idx, degree).tolist()): c
                          for idx, c in np.ndenumerate(box)})


@settings(max_examples=60, deadline=None)
@given(factor_cases(), st.integers(min_value=0, max_value=40))
def test_factor_route_matches_full_grid_route(f, extra):
    # the full-grid mean of |f| is the reference the factor route replaced
    rows, cols = trig._rank_factors(f)
    first = 8 * (f.degree + 1)
    for m in (2 * f.degree + 1 + extra, first, 2 * first, 4 * first,
              8 * first):
        full = float(np.mean(np.abs(f.sample_uniform(m))))
        assert trig._factor_mean_abs(rows, cols, m, m ** (f.dim - 1)) \
            == pytest.approx(full, rel=1e-13)


# poly_l1 of the kernels as the full-grid route computed it
KERNEL_L1 = {
    **{(band_kernel, k): v for k, v in enumerate([
        1.0, 2.062283824414431, 2.5322628684065958, 3.292597757758649,
        3.2925977577586494, 3.2925977577586494, 3.2925977577586494,
        3.2923269468162735, 3.290625735067618])},
    **{(plateau_kernel, k): v for k, v in enumerate([
        2.062283824414431, 2.062283824414431, 2.062283824414431,
        2.062283824414431, 2.0622838244144304, 2.06228382441443,
        2.0629079597416298])},
    (fejer, 6): 1.0,
}


@pytest.mark.parametrize("kernel, k", list(KERNEL_L1),
                         ids=lambda v: getattr(v, "__name__", v))
def test_poly_l1_of_kernels_keeps_its_values(kernel, k):
    assert poly_l1(kernel(k)) == pytest.approx(KERNEL_L1[kernel, k],
                                               rel=1e-14)


def test_kernels_factor_at_rank_one_and_two():
    for k in range(-1, 7):
        assert len(trig._rank_factors(plateau_kernel(k))[0]) == 1
    for k in range(2, 9):
        assert len(trig._rank_factors(band_kernel(k))[0]) == 2


@pytest.mark.parametrize("k", range(0, 7))
def test_plateau_grid_l1_is_the_square_of_its_factor(k):
    # ||P_k (x) P_k||_1 = ||P_k||_1^2 holds on each grid of poly_l1's schedule
    f, p = plateau_kernel(k), trig.poly_from_box(trig._plateau_factor(k))
    rows, cols = trig._rank_factors(f)
    first = 8 * (f.degree + 1)
    for m in (first * 2 ** j for j in range(4) if first * 2 ** j <= 4096):
        assert trig._factor_mean_abs(rows, cols, m, m) == pytest.approx(
            float(np.mean(np.abs(p.sample_uniform(m)))) ** 2, rel=1e-14)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(1, -math.inf)])
def test_poly_l1_rejects_non_finite_coefficients(dim, bad):
    f = TrigPoly(dim, {(1, 0)[:dim]: bad, (0, 1)[:dim]: 1.0})
    with pytest.raises(ValueError, match=r"non-finite coefficients \{\(1,"):
        poly_l1(f)


def _mean_abs(f, m):
    return trig._factor_mean_abs(*trig._rank_factors(f), m, m)


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_band_kernel_grid_l1_is_level_free(k):
    # Observed, not proven: the mean of |b_k| on the m-grid equals that of
    # |b_{k+1}| on the 2m-grid (differences seen up to 2.8e-16).  The two
    # sides use different grids and block counts, up to 8192^2 points.
    for ratio in (8, 16, 32, 64):
        m = ratio * 2 ** k
        assert _mean_abs(band_kernel(k + 1), 2 * m) == pytest.approx(
            _mean_abs(band_kernel(k), m), rel=1e-13)


def test_poly_l1_streams_its_grids():
    f = band_kernel(6)          # the 4096^2 grid alone is 268 MB complex
    tracemalloc.start()
    try:
        poly_l1(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


def test_sample_uniform_rejects_aliasing_grid():
    f = TrigPoly(1, {(4,): 1.0})
    with pytest.raises(ValueError):
        f.sample_uniform(7)


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
    f = fejer(6)
    value, grid, converged = refine_on_grid(
        f.degree, lambda m: float(np.mean(np.abs(f.sample_uniform(m)))),
        rel_tol=1e-6, max_doublings=3, max_grid=4096)
    assert converged
    assert grid == 112
    assert value == pytest.approx(1.0, rel=1e-8)
    # entries of a vector freeze one by one: 1 + m^-4 settles on the same
    # grid, while 1/m keeps moving and takes the loop on to its last grid
    values, grid, converged = refine_on_grid(
        f.degree, lambda m: [1.0 + m ** -4.0, 1.0 / m],
        rel_tol=1e-6, max_doublings=3, max_grid=4096)
    assert converged.tolist() == [True, False]
    assert grid == 448
    assert values.tolist() == [1.0 + 112 ** -4.0, 1.0 / 448]


def test_refine_on_grid_reports_unconverged_section7_norm():
    # the function norm of the Orlicz sampling check: the 64- and 128-point
    # grids differ by about 1e-4 relative, above the 1e-5 asked for
    phi = make_section7(0.05)
    f = random_poly_on_frame(3, seed=5)
    value, grid, converged = refine_on_grid(
        f.degree, lambda m: norm_fun(phi, f.sample_uniform(m)), rel_tol=1e-5,
        max_doublings=1, max_grid=1024)
    assert not converged
    assert grid == 128
    assert value == pytest.approx(14.89687, rel=1e-6)


# ---------------------------------------------------------------------------
# the array algebra against the dict formulas it replaced
# ---------------------------------------------------------------------------
# The oracle keeps coefficients in dicts keyed by tuples, normalised and
# combined one key at a time, exactly as TrigPoly did before it stored
# sorted arrays; every comparison is exact (==).

def _dict_key(dim, key):
    if dim == 1:
        return (int(key[0]),) if isinstance(key, tuple) else (int(key),)
    return (int(key[0]), int(key[1]))


def _dict_clean(dim, mapping):
    out = {}
    for key, val in mapping.items():
        if complex(val) != 0:
            out[_dict_key(dim, key)] = complex(val)
    return out


def _dict_combine(a, b, sign):
    out = dict(a)
    for key, val in b.items():
        out[key] = out.get(key, 0j) + sign * val
    return {k: v for k, v in out.items() if v != 0}


def _dict_convolve(a, b):
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    out = {k: v * large[k] for k, v in small.items() if k in large}
    return {k: v for k, v in out.items() if v != 0}


def _dict_translate(dim, a, h):
    keys = sorted(a)
    ks = np.array(keys, dtype=np.int64).reshape(len(keys), dim)
    phase = (ks * np.asarray(h, dtype=float)).sum(axis=1)
    out = {k: complex(a[k]) * complex(e)
           for k, e in zip(keys, np.exp(1j * phase))}
    return {k: v for k, v in out.items() if v != 0}


def _dict_degree(a):
    return max((max(abs(c) for c in key) for key in a), default=0)


COEFFS = st.one_of(
    st.just(0j), st.sampled_from([1.0, -1.0, 0.5j, 1 - 1j]),
    st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                       allow_infinity=False))


@st.composite
def dict_pairs(draw):
    """Two coefficient dicts of one dimension on random (possibly empty)
    supports.  The second repeats some coefficients of the first with either
    sign, so sums and differences cancel to exactly 0 there; 1-D keys are
    ints or 1-tuples at random."""
    dim = draw(st.sampled_from([1, 2]))
    box = st.tuples(*(st.integers(-6, 6),) * dim)
    a = draw(st.dictionaries(box, COEFFS, max_size=20))
    b = draw(st.dictionaries(box, COEFFS, max_size=20))
    for key in draw(st.lists(st.sampled_from(sorted(a)), unique=True)
                    if a else st.just([])):
        b[key] = draw(st.sampled_from([1.0, -1.0])) * a[key]
    if dim == 1:
        as_int = draw(st.booleans())
        a = {(k[0] if as_int and k[0] % 2 else k): v for k, v in a.items()}
        b = {(k[0] if not as_int and k[0] % 2 else k): v
             for k, v in b.items()}
    return dim, a, b


@settings(max_examples=150, deadline=None)
@given(dict_pairs(), COEFFS,
       st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=2))
def test_array_algebra_matches_dict_formulas(case, scalar, h):
    dim, a, b = case
    f, g = TrigPoly(dim, a), TrigPoly(dim, b)
    da, db = _dict_clean(dim, a), _dict_clean(dim, b)
    assert f.coeffs == da and g.coeffs == db
    assert f + g == TrigPoly(dim, _dict_combine(da, db, 1.0))
    assert f - g == TrigPoly(dim, _dict_combine(da, db, -1.0))
    assert f - f == TrigPoly(dim, {})
    assert scalar * f == TrigPoly(dim, {k: complex(scalar) * v
                                        for k, v in da.items()})
    assert convolve(f, g) == TrigPoly(dim, _dict_convolve(da, db))
    assert f.translate(h[:dim]) == TrigPoly(dim,
                                            _dict_translate(dim, da, h[:dim]))
    assert f.degree == _dict_degree(da)
    assert f.l2_norm() == float(np.linalg.norm(
        np.array([da[k] for k in sorted(da)], dtype=complex)))
    assert set(f.coeffs) == set(da)
    for key in list(da)[:3] + [(7,) * dim]:
        assert f.coeff(key) == da.get(key, 0j)


def test_from_arrays_validates_and_owns_its_arrays():
    ks = np.array([[-1, 2], [0, 0], [0, 3]])
    cs = np.array([1.0, 0.0, 2j])
    f = TrigPoly.from_arrays(2, ks, cs)
    assert f == TrigPoly(2, {(-1, 2): 1.0, (0, 3): 2j})
    ks[0, 0], cs[0] = 5, 7.0           # the caller's arrays stay its own
    assert f.coeff((-1, 2)) == 1.0
    assert not f.ks.flags.writeable and not f.cs.flags.writeable
    for bad in ([[0, 3], [0, 0]], [[0, 0], [0, 0]]):
        with pytest.raises(ValueError, match="lexicographic"):
            TrigPoly.from_arrays(2, bad, [1.0, 1.0])
    with pytest.raises(ValueError, match="cannot reshape"):
        TrigPoly.from_arrays(2, [[0, 0], [0, 1]], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="dimension"):
        TrigPoly.from_arrays(3, np.zeros((0, 3)), [])
    empty = TrigPoly.from_arrays(1, [[0], [3]], [0.0, 0.0])
    assert empty == TrigPoly(1) and empty.degree == 0 and not empty.coeffs


def _dict_plateau_factor(k):
    m = 2 ** k
    tri = lambda j: max(0.0, 1.0 - abs(j) / m)
    out = {}
    for j in range(-2 * m + 1, 2 * m):
        v = tri(j) + tri(j - m) + tri(j + m)
        if v != 0.0:
            out[j] = v
    return out


def _dict_plateau(k):
    if k == -1:
        return {(0, 0): 1.0 + 0j}
    fac = _dict_plateau_factor(k)
    return {(a, b): complex(va * vb) for a, va in fac.items()
            for b, vb in fac.items()}


def test_kernels_match_dict_formulas():
    for n in range(21):
        assert fejer(n) == TrigPoly(1, {(k,): 1.0 - abs(k) / (n + 1)
                                        for k in range(-n, n + 1)})
    for k in range(-1, 8):
        assert plateau_kernel(k) == TrigPoly(2, _dict_plateau(k))
    for k in range(8):
        expect = (_dict_plateau(k - 1) if k < 2 else _dict_combine(
            _dict_plateau(k - 1), _dict_plateau(k - 3), -1.0))
        assert band_kernel(k) == TrigPoly(2, expect)


@pytest.mark.parametrize("n", range(3, 8))
def test_frame_indices_match_comprehension(n):
    outer, hole = 2 ** n, 2 ** (n - 3)
    expect = tuple((k, l) for k in range(-outer + 1, outer)
                   for l in range(-outer + 1, outer)
                   if not (abs(k) <= hole and abs(l) <= hole))
    fr = frame(n)
    assert tuple(map(tuple, fr.ks.tolist())) == expect
    assert fr.ks.dtype == np.int64 and fr.ks.shape == (fr.omega, 2)
    assert not fr.ks.flags.writeable


@pytest.mark.parametrize("law", ["gaussian", "unimodular"])
def test_random_poly_on_frame_matches_dict_route(law):
    for n, seed in ((3, 0), (4, 7), (5, 11)):
        rng = np.random.default_rng(seed)
        idx = list(map(tuple, frame(n).ks.tolist()))
        expect = TrigPoly(2, dict(zip(idx, _coefficients(rng, len(idx), law))))
        assert random_poly_on_frame(n, seed, law) == expect


# ---------------------------------------------------------------------------
# input guards
# ---------------------------------------------------------------------------

_F1 = TrigPoly(1, {(1,): 1.0})
_F2 = TrigPoly(2, {(1, 0): 1.0})

GUARDS = [
    (lambda: TrigPoly(2, {(1,): 1.0}),
     "lattice point (1,) is not of dimension 2"),
    (lambda: _F1 + _F2, "dimension mismatch"),
    (lambda: _F2.translate(0.5), "shift needs 2 components"),
    (lambda: _F2.eval_at(0.0), "evaluation needs 2 coordinates"),
    (lambda: fejer(-1), "order must be >= 0"),
    (lambda: plateau_kernel(-2), "index must be >= -1"),
    (lambda: band_kernel(-1), "index must be >= 0"),
    (lambda: convolve(_F1, _F2), "dimension mismatch"),
    (lambda: sample_on_grid(_F1, frame(3)),
     "frame sampling needs a 2-D polynomial"),
]


@pytest.mark.parametrize("call, message", GUARDS,
                         ids=[m for _, m in GUARDS])
def test_input_guards_raise(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
