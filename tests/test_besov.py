"""Moduli of continuity, the two Besov-Orlicz norms, and best approximation."""

import collections
import math
import re
import tracemalloc
from unittest import mock

import mpmath
import numpy as np
import pytest

from orlicheck import besov, trig
from orlicheck.besov import (BesovParams, _shift_norms,
                             best_approximation, besov_norm_classical,
                             besov_norm_tilde, check_norm_comparison,
                             check_sum_integral_sandwich,
                             modulus, multiplier)
from orlicheck.luxemburg import norm_fun, poly_norm
from orlicheck.sampling import random_poly_1d
from orlicheck.trig import TrigPoly, band_kernel, convolve
from orlicheck.young import (make_logpower, make_power, make_section7,
                             make_tabulated)


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
                                                   rel=1e-9, abs=0.0)


def test_modulus_diagonal_harmonic_closed_form_2d():
    # sup_{|h|<=t} |e^{i(h1+h2)} - 1| = 2 sin(sqrt(2) t / 2) for sqrt(2)t <= pi
    f = TrigPoly(2, {(1, 1): 1.0})
    phi = make_power(2.0)
    for t in (0.2, 0.7, 1.5):
        expect = 2.0 * math.sin(min(math.sqrt(2.0) * t, math.pi) / 2.0)
        assert modulus(f, t, phi) == pytest.approx(expect, rel=1e-6, abs=0.0)


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
    assert max(b) == pytest.approx(a, rel=1e-10, abs=0.0)


SHIFT_PHIS = {
    "section7": make_section7(0.05),
    "power1.5": make_power(1.5),
    "logpower": make_logpower(1.0, 1.0),
    "tabulated": make_tabulated([(1.0, 1.0), (2.0, 3.0), (3.0, 7.0)]),
}


def _shift_cases():
    """(f, shifts) pairs in 1-D and 2-D.  Along x, e^{3iy} + e^{ix} has a
    difference of degree 1, not 3, and a polynomial in y alone has a zero
    difference."""
    rng = np.random.default_rng(4)
    f1 = TrigPoly(1, {(k,): complex(*rng.standard_normal(2))
                      for k in range(-3, 4)})
    f2 = random_poly2(1, seed=4)
    drop = TrigPoly(2, {(0, 3): 1.0, (1, 0): 1.0})
    in_y = TrigPoly(2, {(0, 1): 1.0, (0, -1): 0.5j})
    return [(f1, np.linspace(0.05, 1.5, 7)[:, None]),
            (f2, np.array([[0.3, 0.0], [0.1, -0.4], [-1.0, 0.7]])),
            (drop, np.array([[0.4, 0.0], [0.9, 0.0], [0.3, 0.2]])),
            (in_y, np.array([[0.5, 0.0], [0.0, 0.5], [1.5, 0.0]]))]


@pytest.mark.parametrize("phi_name", sorted(SHIFT_PHIS))
def test_batched_shift_norms_match_per_shift_route(phi_name):
    phi = SHIFT_PHIS[phi_name]
    degrees = []
    for f, hs in _shift_cases():
        diffs = [f.translate(h) - f for h in hs]
        degrees.append([d.degree if d.coeffs else None for d in diffs])
        expect = [poly_norm(phi, d) for d in diffs]
        # 80 points hold 2 rows of the first 1-D grid, and under one row of
        # any 2-D grid, so chunks end inside each group
        for block in (trig.SAMPLE_BLOCK, 80):
            with mock.patch.object(trig, "SAMPLE_BLOCK", block):
                got = _shift_norms(f, hs, phi)
            assert got == pytest.approx(expect, rel=1e-12, abs=0.0), block
    assert degrees[2:] == [[1, 1, 3], [None, 1, None]]


def test_shift_stack_samples_every_row_on_the_grids_of_f():
    # along x, e^{3iy} + e^{ix} + 0.5 e^{2ix} has a difference of degree 2
    # whose modulus is not constant, so its grids matter: each row takes the
    # grids of degree 3, not those poly_norm gives the difference
    top = TrigPoly(2, {(0, 3): 1.0, (1, 0): 1.0, (2, 0): 0.5})
    cases = _shift_cases() + [
        (top, np.array([[0.4, 0.0], [0.9, 0.0], [1.7, 0.0], [0.3, 0.2]]))]
    grids = dict(poly_norm.__kwdefaults__)
    del grids["exact_l2"]
    for phi in SHIFT_PHIS.values():
        for f, hs in cases:
            diffs = [f.translate(h) - f for h in hs]
            on_f = [trig.refine_on_grid(
                f.degree, lambda m, d=d: norm_fun(phi, d.sample_uniform(m)),
                **grids)[0] for d in diffs]
            got = _shift_norms(f, hs, phi)
            assert got == pytest.approx(on_f, rel=1e-12, abs=0.0)
            own = [poly_norm(phi, d) for d in diffs]
            assert got == pytest.approx(own, rel=1e-5, abs=0.0)
    assert [d.degree for d in (top.translate(h) - top for h in cases[-1][1])
            ] == [2, 2, 2, 3]


def _parseval_cases():
    """Polynomials for the Phi = t^2 shift norms: random complex ones in 1-D
    and 2-D of degree 1 to 8, sparse supports where k is present and -k is
    missing, and supports holding the zero mode."""
    rng = np.random.default_rng(7)
    cases = []
    for deg in range(1, 9):
        cases.append(TrigPoly(1, {(k,): complex(*rng.standard_normal(2))
                                  for k in range(-deg, deg + 1)}))
        cases.append(random_poly2(deg, seed=deg))
    return cases + [
        TrigPoly(2, {(1, 0): 1, (0, 2): 1j}),
        TrigPoly(2, {(1, 0): 1, (-1, 0): 2j, (0, -2): 0.5, (3, -1): 1 - 1j}),
        TrigPoly(1, {(0,): 4.0, (-2,): 1j, (5,): 0.3}),
        TrigPoly(2, {(0, 0): 4.0, (0, 1): 1.0, (0, -1): -1.0, (-2, 1): 2j}),
    ]


def test_parseval_shift_norms_match_translate_route():
    # each coefficient of f(. + h) - f by the translate route is rounded to
    # about eps |c_k| while it is about |c_k| |k.h| in size, so that route's
    # own relative error grows like eps ||f|| / ||f(. + h) - f|| at small |h|
    phi = make_power(2.0)
    rng = np.random.default_rng(8)
    radii = np.array([1e-9, 1e-6, 1e-3, 0.1, 1.0, 3.0, 7.0, 13.0, 25.0])
    eps = np.finfo(float).eps
    for f in _parseval_cases():
        dirs = rng.standard_normal((radii.size, f.dim))
        hs = radii[:, None] * dirs / np.linalg.norm(dirs, axis=1,
                                                    keepdims=True)
        got = _shift_norms(f, hs, phi)
        for h, value in zip(hs, got):
            want = (f.translate(h) - f).l2_norm()
            tol = 1e-13 + 8.0 * eps * f.l2_norm() / want
            assert value == pytest.approx(want, rel=tol, abs=0.0), (f, h)


def test_parseval_shift_norm_at_tiny_shift_matches_mpmath():
    f = TrigPoly(2, {(0, 0): 3.0, (1, 0): 1.0, (0, 2): 1j, (-1, 0): -0.5,
                     (-3, 1): 0.5 - 2j})
    h = np.array([[0.6e-9, -0.8e-9]])
    got = float(_shift_norms(f, h, make_power(2.0))[0])
    with mpmath.workdps(30):
        h1, h2 = (mpmath.mpf(float(v)) for v in h[0])
        want = mpmath.sqrt(mpmath.fsum(
            abs(mpmath.mpc(c)) ** 2 * 4 * mpmath.sin((k * h1 + l * h2) / 2) ** 2
            for (k, l), c in f.coeffs.items()))
    assert got == pytest.approx(float(want), rel=1e-13, abs=0.0)


def test_shift_norms_at_tiny_shifts_match_mpmath_on_the_grid():
    # the difference f(. + h) - f of a degree-3 polynomial, normed on the
    # 512-point grid where its quadrature ends; c_k e^{ik h} - c_k would be
    # off by about eps/|k h| relative (3.5e-9 at |h| = 1e-9)
    f = random_poly_1d(3, 0)
    hs = np.array([[1e-9], [-1e-6], [2.0 ** -16]])
    got = _shift_norms(f, hs, make_power(1.5))
    m = 512
    with mpmath.workdps(40):
        cs = [(k, mpmath.mpc(c)) for (k,), c in f.coeffs.items()]
        xs = [2 * mpmath.pi * j / m for j in range(m)]
        for (h,), value in zip(hs.tolist(), got.tolist()):
            mean = mpmath.fsum(
                abs(mpmath.fsum(c * (mpmath.expj(k * (x + h))
                                     - mpmath.expj(k * x)) for k, c in cs))
                ** 1.5 for x in xs) / m
            assert value == pytest.approx(float(mean ** (1 / 1.5)),
                                          rel=1e-13, abs=0.0), h


# Radii unsorted, repeated, and spread over several decades.
_RADII = np.array([0.5, 1e-3, 2.0, 0.5, 0.03, 3.0, 1e-5, 0.3])
# Grids per case: the default grid for Phi = t^2; for section7 in 2-D a
# coarse one, which keeps each quadrature batch small.
_VECTOR_CASES = {
    "power2-1d": (make_power(2.0), random_poly_1d(4, 5), {}),
    "power2-2d": (make_power(2.0), random_poly2(3, seed=5), {}),
    "section7-1d": (make_section7(0.05), random_poly_1d(3, 5), {}),
    "section7-2d": (make_section7(0.05), random_poly2(2, seed=5),
                    {"angles": 8, "radii": 2}),
}


def _scalar_loop(f, t, phi, **kw):
    """modulus radius by radius: the oracle of the batched call."""
    return np.array([modulus(f, float(v), phi, **kw) for v in t])


@pytest.mark.parametrize("refine", [True, False], ids=["refine", "grid"])
@pytest.mark.parametrize("case", sorted(_VECTOR_CASES))
def test_vector_modulus_equals_scalar_calls(case, refine):
    phi, f, kw = _VECTOR_CASES[case]
    got = modulus(f, _RADII, phi, refine=refine, **kw)
    assert got.shape == _RADII.shape and got.dtype == float
    assert np.array_equal(got, _scalar_loop(f, _RADII, phi, refine=refine,
                                            **kw))
    assert got[0] == got[3]


@pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
def test_vector_modulus_spans_several_groups(dim):
    # more radii than one group holds (64 in 1-D, 4 in 2-D on the default
    # grid), shuffled, so that radii meet in different groups and chunks
    f = random_poly_1d(5, 6) if dim == 1 else random_poly2(3, seed=6)
    ts = np.random.default_rng(6).permutation(np.geomspace(1e-4, 3.0, 70))
    phi = make_power(2.0)
    assert np.array_equal(modulus(f, ts, phi), _scalar_loop(f, ts, phi))


def test_one_element_array_gives_an_array_and_a_scalar_a_float():
    f, phi = random_poly2(3, seed=7), make_power(2.0)
    one = modulus(f, np.array([0.4]), phi)
    alone = modulus(f, 0.4, phi)
    assert isinstance(one, np.ndarray) and one.shape == (1,)
    assert type(alone) is float and one[0] == alone
    assert modulus(f, np.array([]), phi).shape == (0,)


@pytest.mark.parametrize("phi", [make_power(2.0), make_section7(0.05)],
                         ids=["power2", "section7"])
def test_zero_polynomial_gives_zeros_of_the_same_shape(phi):
    for f in (TrigPoly(1, {}), TrigPoly(2, {(0, 0): 3.0})):
        assert modulus(f, 0.5, phi) == 0.0
        got = modulus(f, _RADII, phi)
        assert got.shape == _RADII.shape and not got.any()


def test_modulus_stages_are_two_shift_norm_calls_per_group():
    # 2-D, 8 x 4 candidates per radius: 64 radii per group of 2048 rows,
    # so 100 radii take two groups, each a grid call and a refinement call
    f, phi = random_poly2(2, seed=8), make_power(2.0)
    rows = []
    real = besov._shift_norms

    def counted(f, hs, phi):
        rows.append(len(hs))
        return real(f, hs, phi)

    with mock.patch.object(besov, "_shift_norms", counted):
        modulus(f, np.geomspace(1e-3, 1.0, 100), phi, angles=8, radii=4)
    assert rows == [64 * 32, 64 * 45, 36 * 32, 36 * 45]


def test_parseval_shift_norms_hold_one_sine_chunk():
    # a degree-8 2-D polynomial has 144 folded frequencies: 3000 shifts are
    # worked 56 rows (8064 entries) at a time in one reused matrix
    f = random_poly2(8, seed=9)
    hs = np.random.default_rng(9).uniform(-1.0, 1.0, (3000, 2))
    _shift_norms(f, hs, make_power(2.0))   # warm f._folded
    tracemalloc.start()
    try:
        _shift_norms(f, hs, make_power(2.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the halves, their split and its temporary (48 KB each), the values
    # (24 KB) and one sine chunk (64 KB); the whole matrix takes 3.5 MB
    assert peak < 3 * 3000 * 16 + 8 * besov._SINE_BLOCK + 2 ** 16


@pytest.mark.parametrize("case", ["power2-2d", "section7-1d"])
def test_sweeps_report_what_scalar_calls_report(case):
    # the sandwich and the classical norm take each sweep in one modulus
    # call; with modulus replaced by its scalar loop the reports are the same
    phi, f, kw = _VECTOR_CASES[case]
    params = BesovParams(phi, lambda t: t ** 0.5, n_max=8, h_angles=16,
                         h_radii=4)
    grid = np.geomspace(1.0, 2.0 ** 9, 24)
    real = besov.modulus

    def scalar_loop(f, t, phi, **kw):
        t = np.asarray(t)
        if t.ndim == 0:
            return real(f, float(t), phi, **kw)
        return np.array([real(f, float(v), phi, **kw) for v in t])

    want = [check_sum_integral_sandwich(f, params, grid),
            besov_norm_classical(f, params)]
    with mock.patch.object(besov, "modulus", scalar_loop):
        got = [check_sum_integral_sandwich(f, params, grid),
               besov_norm_classical(f, params)]
    assert repr(got) == repr(want)


# ---------------------------------------------------------------------------
# classical norm
# ---------------------------------------------------------------------------

def test_classical_norm_constant():
    f = TrigPoly(2, {(0, 0): 2.0})
    res = besov_norm_classical(f, params_power2())
    assert res.value == pytest.approx(2.0, rel=1e-12, abs=0.0)
    assert all(t == 0.0 for t in res.terms)


def test_classical_norm_single_harmonic_series():
    # derived closed form: each term is 2 sin(min(sqrt(2) 2^{-n}, pi)/2)
    f = TrigPoly(2, {(1, 1): 1.0})
    n_max = 20
    res = besov_norm_classical(f, params_power2(n_max=n_max))
    expect = 1.0 + sum(
        2.0 * math.sin(min(math.sqrt(2.0) * 2.0 ** (-n), math.pi) / 2.0)
        for n in range(n_max + 1))
    assert res.value == pytest.approx(expect, rel=1e-5, abs=0.0)
    assert res.tail == pytest.approx(res.terms[-1])


def test_classical_norm_truncation_stable():
    # geometric tail: doubling n_max moves the value below 1e-6 relative
    f = random_poly2(4, seed=3)
    psi = lambda t: t ** 0.5
    a = besov_norm_classical(f, params_power2(psi=psi, n_max=40)).value
    b = besov_norm_classical(f, params_power2(psi=psi, n_max=80)).value
    assert b == pytest.approx(a, rel=1e-6, abs=0.0)


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
                                      rel=1e-12, abs=0.0)


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
    assert res.terms[3] == pytest.approx(g3.l2_norm(), rel=1e-12, abs=0.0)
    assert len(res.terms) >= 4


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4, 5, 8, 9])
def test_band_sum_stops_where_the_hole_covers_the_degree(degree):
    f = random_poly2(degree, seed=degree)
    terms = besov_norm_tilde(f, params_power2()).terms
    last = next(n for n in range(3, 64) if 2 ** (n - 3) >= degree)
    assert len(terms) == last + 1
    assert not convolve(band_kernel(last + 1), f).coeffs
    if last > 3:
        assert terms[last - 1] > 0.0


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
        abs(c) * nf, rel=1e-9, abs=0.0)


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
        outside = math.sqrt(sum(abs(v) ** 2 for (k, l), v in f.coeffs.items()
                                if max(abs(k), abs(l)) > m))
        assert res.exact_l2 == pytest.approx(outside, rel=1e-14, abs=0.0)


def test_best_approx_surviving_coefficient():
    f = TrigPoly(2, {(3, 0): 1.0, (0, 5): 1.0})
    res = best_approximation(f, 4, make_power(2.0))
    assert res.exact_l2 == pytest.approx(1.0, rel=1e-12, abs=0.0)


def test_best_approx_mean_competitor_at_zero():
    f = random_poly2(2, seed=9)
    res = best_approximation(f, 0, make_power(2.0))
    outside = math.sqrt(sum(abs(v) ** 2 for k, v in f.coeffs.items()
                            if k != (0, 0)))
    assert res.exact_l2 == pytest.approx(outside, rel=1e-12, abs=0.0)
    assert res.upper == pytest.approx(outside, rel=1e-12, abs=0.0)


def test_multiplier_family_invariants():
    for m in (1, 2, 5, 8):
        pm = multiplier(m)
        assert pm.coeff((0, 0)) == pytest.approx(1.0)
        assert all(max(abs(k), abs(l)) <= m for k, l in pm.coeffs)


def test_multiplier_matches_dict_formula():
    # the per-coefficient loop the outer product replaced, as the oracle
    for m in range(1, 9):
        ks = np.arange(-m, m + 1)
        wk = besov._bump1(ks / m)
        gauss = np.exp(-(ks ** 2) / m ** 2)
        coeffs = {}
        for i, k in enumerate(ks):
            for j, l in enumerate(ks):
                v = wk[i] * wk[j] * gauss[i] * gauss[j]
                if v != 0.0:
                    coeffs[(int(k), int(l))] = v
        assert multiplier(m) == TrigPoly(2, coeffs)


def test_numpy_integer_orders_match_int_ones():
    f = TrigPoly(2, {(1, 0): 1.0, (3, 2): 0.5, (0, 0): 0.25})
    assert multiplier(np.int64(3)) == multiplier(3)
    for m in (0, 2):
        assert best_approximation(f, np.int32(m), make_power(2.0)) \
            == best_approximation(f, m, make_power(2.0))


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
    for f in (TrigPoly(2, {(0, 0): 1.0}), TrigPoly(2, {})):
        rep = check_sum_integral_sandwich(f, params_power2(),
                                          np.geomspace(1.0, 100.0, 20))
        assert rep.passed
        assert set(rep.quantities.values()) == {0.0}


def test_sandwich_random_batch():
    psi = lambda t: t ** 0.5
    grid = np.geomspace(1.0, 2.0 ** 15, 90)
    for seed in range(20):
        f = random_poly2(3, seed=100 + seed)
        rep = check_sum_integral_sandwich(
            f, params_power2(psi=psi, n_max=13, h_angles=32, h_radii=6), grid)
        assert rep.passed, (seed, rep.quantities)


def test_sandwich_section7_1d():
    # the non-Hilbert path: every shift norm is a Luxemburg root; the second
    # case runs at the size of the Phi = t^2 sandwich benchmark
    psi = lambda t: t ** 0.5
    cases = [
        (random_poly_1d(4, 3), BesovParams(make_section7(0.05), psi, n_max=6,
                                           h_angles=8, h_radii=4),
         np.geomspace(1.0, 64.0, 12)),
        (random_poly_1d(3, 0), BesovParams(make_section7(0.05), psi,
                                           n_max=13, h_angles=32, h_radii=6),
         np.geomspace(1.0, 2.0 ** 15, 90)),
    ]
    for f, params, grid in cases:
        rep = check_sum_integral_sandwich(f, params, grid)
        assert rep.passed, rep.quantities
        assert rep.quantities["margin_lower"] >= 0
        assert rep.quantities["margin_upper"] >= 0


# ---------------------------------------------------------------------------
# norm comparison
# ---------------------------------------------------------------------------

def test_comparison_constant_ratio_is_prefactor():
    psi = lambda t: 1.0 + 0.5 * math.log(t)
    f = TrigPoly(2, {(0, 0): 4.0})
    rep = check_norm_comparison(f, BesovParams(make_power(2.0), psi))
    assert rep.passed
    assert rep.quantities["ratio"] == pytest.approx(
        rep.quantities["bar_norm_prefactor"], rel=1e-10, abs=0.0)


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


def test_comparison_section7_degree2():
    params = BesovParams(make_section7(0.05), lambda t: t ** 0.5, n_max=4,
                         h_angles=8, h_radii=2)
    rep = check_norm_comparison(random_poly2(2, seed=13), params)
    assert rep.passed
    assert rep.margin >= 0.0
    assert all(lv["margin"] >= 0.0 for lv in rep.quantities["levels"])


def test_comparison_norms_f_once():
    # three nonzero bands (b_1 * f equals f, but is its own polynomial), two
    # best approximations, and ||f||_Phi once for both sums
    params = BesovParams(make_section7(0.05), lambda t: t ** 0.5, n_max=3,
                         h_angles=8, h_radii=3)
    f = TrigPoly(2, {(1, 0): 1.0, (0, -1): 0.5j, (0, 0): 0.25})
    with mock.patch.object(besov, "poly_norm",
                           wraps=besov.poly_norm) as counted:
        rep = check_norm_comparison(f, params)
    assert counted.call_count == 6
    assert sum(c.args[1] is f for c in counted.call_args_list) == 1
    assert rep.passed


# ---------------------------------------------------------------------------
# input guards
# ---------------------------------------------------------------------------

_F2 = TrigPoly(2, {(1, 0): 1.0, (0, 1): 0.5})
_P2 = params_power2()

GUARDS = [
    (lambda: params_power2(n_max=1), "n_max must be >= 2"),
    (lambda: modulus(_F2, 0.0, make_power(2.0)),
     "shift radius t must be positive"),
    (lambda: modulus(random_poly_1d(3, 0), math.nan, make_power(2.0)),
     "shift radius t must be positive"),
    (lambda: modulus(random_poly_1d(3, 0), math.inf, make_section7(0.05)),
     "shift radius t must be positive"),
    (lambda: multiplier(0), "multiplier order must be >= 1"),
    (lambda: best_approximation(TrigPoly(1, {(1,): 1.0}), 1, make_power(2.0)),
     "best approximation is defined for 2-D polynomials"),
    (lambda: best_approximation(_F2, -1, make_power(2.0)),
     "box size must be >= 0"),
    (lambda: check_sum_integral_sandwich(_F2, _P2, [0.5, 2.0]),
     "t grid must start at or above 1"),
    (lambda: check_sum_integral_sandwich(_F2, _P2, [2.0]),
     "t grid needs at least 2 nodes, got 1"),
    (lambda: check_sum_integral_sandwich(_F2, _P2, []),
     "t grid needs at least 2 nodes, got 0"),
    (lambda: multiplier(1.5), "multiplier order must be an integer, not 1.5"),
    (lambda: best_approximation(_F2, 1.5, make_power(2.0)),
     "box size must be an integer, not 1.5"),
    (lambda: best_approximation(_F2, 0.0, make_power(2.0)),
     "box size must be an integer, not 0.0"),
    (lambda: modulus(_F2, np.array([0.5, 0.0]), make_power(2.0)),
     "shift radius t must be positive"),
    (lambda: modulus(_F2, np.array([0.5, math.nan]), make_power(2.0)),
     "shift radius t must be positive"),
    (lambda: modulus(random_poly_1d(3, 0), np.array([math.inf, 0.5]),
                     make_section7(0.05)),
     "shift radius t must be positive"),
    (lambda: modulus(TrigPoly(2, {}), np.array([-1.0]), make_power(2.0)),
     "shift radius t must be positive"),
    (lambda: modulus(_F2, np.full((2, 2), 0.5), make_power(2.0)),
     "shift radii must be a scalar or a 1-D array"),
]


def _ids(guards):
    """Each guard's message, a repeated one numbered from its second use."""
    seen = collections.Counter()
    for _, message in guards:
        seen[message] += 1
        yield message + (f" #{seen[message]}" if seen[message] > 1 else "")


@pytest.mark.parametrize("call, message", GUARDS, ids=list(_ids(GUARDS)))
def test_input_guards_raise(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
