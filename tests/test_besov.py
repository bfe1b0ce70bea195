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
    # 2-D, 8 x 4 candidates per radius.  A degree-2 polynomial has max |k|
    # = sqrt(8): the 300 radii up to 1 take the ring route first, 8 circle
    # rows and 9 refinement rows each, so 256 radii per group of 2048
    # circle rows; then the 70 radii from 1.2 take the full grid, 32 and 45
    # rows each, so 64 radii per group
    f, phi = random_poly2(2, seed=8), make_power(2.0)
    ts = np.concatenate([np.geomspace(1e-3, 1.0, 300),
                         np.geomspace(1.2, 3.0, 70)])
    ts = np.random.default_rng(8).permutation(ts)
    rows = []
    real = besov._shift_norms

    def counted(f, hs, phi):
        rows.append(len(hs))
        return real(f, hs, phi)

    with mock.patch.object(besov, "_shift_norms", counted):
        modulus(f, ts, phi, angles=8, radii=4)
    assert rows == [256 * 8, 256 * 9, 44 * 8, 44 * 9,
                    64 * 32, 64 * 45, 6 * 32, 6 * 45]


def _full_grid_modulus(f, ts, phi, angles, radii, refine):
    """modulus on the whole polar grid and the whole refinement of every
    radius, one _shift_norms call per stage: the oracle of the ring rule."""
    n_r = 4 * radii if f.dim == 1 else radii
    n_th = 1 if f.dim == 1 else angles
    thetas = 2.0 * np.pi * np.arange(n_th) / n_th
    rows = np.arange(len(ts))
    rs = ts[:, None] * np.arange(1, n_r + 1) / n_r
    vals = _shift_norms(f, besov._polar(f.dim, rs, thetas[None]), phi)
    vals = vals.reshape(len(ts), -1)
    best = np.argmax(vals, axis=1)
    if not refine:
        return vals[rows, best]
    r0, th0 = rs[rows, best // n_th], thetas[best % n_th]
    dr, dth = ts / n_r, 2.0 * np.pi / n_th
    rr = np.linspace(np.maximum(r0 - dr, 1e-12 * ts), np.minimum(r0 + dr, ts),
                     9 if f.dim == 1 else 5, axis=1)
    tt = np.linspace(th0 - dth, th0 + dth, 9, axis=1)
    fine = _shift_norms(f, besov._polar(f.dim, rr, tt), phi)
    return np.maximum(vals[rows, best], fine.reshape(len(ts), -1).max(axis=1))


_RING_RADII = np.geomspace(1e-6, 4.0, 40)   # straddles pi / max |k|
_GRIDS = [(64, 8), (32, 6), (7, 3)]


@pytest.mark.parametrize("refine", [True, False], ids=["refine", "grid"])
@pytest.mark.parametrize("grid", _GRIDS, ids=lambda g: f"{g[0]}x{g[1]}")
@pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
def test_ring_route_has_the_bits_of_the_full_grid(dim, grid, refine):
    phi, (angles, radii) = make_power(2.0), grid
    polys = [random_poly_1d(d, d) if dim == 1 else random_poly2(d, seed=d)
             for d in range(1, 9)]
    polys.append(TrigPoly(dim, {(0,) * dim: 2.0}))   # no folded spectrum
    for f in polys:
        ring = besov._on_ring(f, _RING_RADII, phi)
        assert ring.any() and (f.degree == 0 or not ring.all())
        got = modulus(f, _RING_RADII, phi, angles=angles, radii=radii,
                      refine=refine)
        want = _full_grid_modulus(f, _RING_RADII, phi, angles, radii, refine)
        assert np.array_equal(got, want), f.degree


@pytest.mark.parametrize("seed", [0, 1])
def test_ring_route_has_the_bits_of_the_full_grid_on_sandwich_polys(seed):
    # the polynomials and radii of the Phi = t^2 sandwich benchmark
    t = np.geomspace(1.0, 2.0 ** 15, 90)
    radii = np.concatenate([1.0 / (2.0 * t), 2.0 / t,
                            np.ldexp(1.0, -np.arange(14)), _RING_RADII])
    phi = make_power(2.0)
    for d, j in [(3, 0), (3, 1), (8, 0)]:
        f = random_poly2(d, seed=(seed, d, j))
        for angles, n_r in [(32, 6), *_GRIDS]:
            assert np.array_equal(
                modulus(f, radii, phi, angles=angles, radii=n_r),
                _full_grid_modulus(f, radii, phi, angles, n_r, True))


@pytest.mark.parametrize("angles", [1, 2, 3])
def test_ring_route_differs_only_on_an_all_zero_grid(angles):
    # f = e^{3iy} at t = 1/2: one angle gives a grid of zero rows, so the
    # full grid refines around its first row, radius t/4, and peaks at
    # 2 sin(3 (t/2) / 2), while the ring route refines around the circle
    # and finds 2 sin(3 t / 2).  With two angles the rows at angle pi are
    # not zero, as sin(pi) rounds to about 1.2e-16, and grow with r, so
    # both routes pick the circle and agree to the bit, as from three on
    f, phi, ts = TrigPoly(2, {(0, 3): 1.0}), make_power(2.0), np.array([0.5])
    assert besov._on_ring(f, ts, phi).all()
    for refine in (False, True):
        got = modulus(f, ts, phi, angles=angles, radii=4, refine=refine)
        want = _full_grid_modulus(f, ts, phi, angles, 4, refine)
        if angles > 1 or not refine:
            assert np.array_equal(got, want)
        else:
            assert got[0] == pytest.approx(2.0 * math.sin(0.75), rel=1e-12,
                                           abs=0.0)
            assert want[0] == pytest.approx(2.0 * math.sin(0.375),
                                            rel=1e-12, abs=0.0)


@pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
def test_past_the_ring_threshold_the_sup_lies_inside_the_disc(dim):
    # f = e^{3ix} at t = pi/2 (t |k| = 1.5 pi): ||f(. + h) - f||_2 =
    # 2 |sin(3 h_1 / 2)| peaks at 2 at h_1 = pi/3 inside the disc, while on
    # the ray along k the circle gives 2 sin(3 pi / 4) = sqrt 2
    f, phi, t = TrigPoly(dim, {(3,) + (0,) * (dim - 1): 1.0}), \
        make_power(2.0), math.pi / 2
    assert not besov._on_ring(f, np.array([t]), phi).any()
    assert modulus(f, t, phi) == pytest.approx(2.0, abs=1e-4)
    on_ray = besov._sup_shift_norms(f, np.array([t]), phi, 8,
                                    np.zeros(1), True, True)
    assert on_ray[0] == pytest.approx(math.sqrt(2.0), rel=1e-15, abs=0.0)


def test_parseval_terms_are_nondecreasing_along_rays_up_to_the_threshold():
    # 30 digits: on a degree-3 polynomial at t max |k| = pi, N(r u)^2 =
    # sum_k |c_k|^2 4 sin^2(r k.u / 2) increases in r on [0, t] along rays
    # that include the direction of the largest k
    f = random_poly2(3, seed=11)
    t_float = math.pi / math.sqrt(18.0)
    phi = make_power(2.0)
    assert besov._on_ring(f, np.array([np.nextafter(t_float, 0.0)]),
                          phi).all()
    assert not besov._on_ring(f, np.array([t_float * (1.0 + 1e-12)]),
                              phi).any()
    with mpmath.workdps(30):
        t = mpmath.pi / mpmath.sqrt(18)
        terms = [(abs(mpmath.mpc(c)) ** 2, k) for k, c in f.coeffs.items()]
        for theta in [mpmath.pi / 4, 0, mpmath.mpf("0.3"), 2, 5 * mpmath.pi / 4]:
            u = (mpmath.cos(theta), mpmath.sin(theta))

            def sq(r):
                return sum(4 * w * mpmath.sin(r * (k[0] * u[0] + k[1] * u[1])
                                              / 2) ** 2 for w, k in terms)

            vals = [sq(t * i / 64) for i in range(65)]
            assert all(b > a for a, b in zip(vals, vals[1:])), theta


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
    # a constant has no folded spectrum, so modulus takes every radius on
    # the ring; the zero polynomial takes none, as modulus shifts it nowhere
    for f, ring in ((TrigPoly(2, {(0, 0): 1.0}), 20 + 20 + 17),
                    (TrigPoly(2, {}), 0)):
        rep = check_sum_integral_sandwich(f, params_power2(),
                                          np.geomspace(1.0, 100.0, 20))
        assert rep.passed
        q = dict(rep.quantities)
        assert q.pop("ring_radii") == ring
        assert set(q.values()) == {0.0}


def test_sandwich_random_batch():
    psi = lambda t: t ** 0.5
    grid = np.geomspace(1.0, 2.0 ** 15, 90)
    for seed in range(20):
        f = random_poly2(3, seed=100 + seed)
        rep = check_sum_integral_sandwich(
            f, params_power2(psi=psi, n_max=13, h_angles=32, h_radii=6), grid)
        assert rep.passed, (seed, rep.quantities)


def test_sandwich_reports_its_grid_and_ring_radii():
    # degree 3, full box: max |k| = sqrt 18, so 1/(2t) <= 1/2 and 2^{-n}
    # for n >= 1 are ring radii, and 2/t is one from t >= 2 sqrt 18 / pi
    t = np.geomspace(1.0, 2.0 ** 15, 90)
    params = params_power2(psi=lambda v: v ** 0.5, n_max=13, h_angles=32,
                           h_radii=6)
    rep = check_sum_integral_sandwich(random_poly2(3, seed=(0, 3, 0)),
                                      params, t)
    assert rep.inputs["h_angles"] == 32 and rep.inputs["h_radii"] == 6
    up = int(np.sum(2.0 / t * math.sqrt(18.0) <= math.pi))
    assert rep.quantities["ring_radii"] == 90 + up + 13 == 184
    s7 = BesovParams(make_section7(0.05), lambda v: v ** 0.5, n_max=4,
                     h_angles=4, h_radii=2)
    rep = check_sum_integral_sandwich(random_poly_1d(2, 0), s7, t[:4])
    assert rep.quantities["ring_radii"] == 0


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


def test_comparison_fails_on_a_nan_level_margin():
    # a NaN bound at a later level fails the check, though the first level
    # passes with room to spare
    f = TrigPoly(2, {(1, 0): 1.0, (0, -1): 0.5j, (1, 1): -0.25})
    exact = besov.best_approximation

    def nan_at_m1(g, m, phi):
        return besov.BestApprox(math.nan if m == 1 else exact(g, m, phi).upper,
                                None)

    with mock.patch.object(besov, "best_approximation", nan_at_m1):
        rep = check_norm_comparison(f, params_power2(n_max=3, h_angles=4,
                                                     h_radii=2))
    margins = [lv["margin"] for lv in rep.quantities["levels"]]
    assert margins[0] > 0.0 and math.isnan(margins[1])
    assert rep.passed is False and math.isnan(rep.margin)


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
    # angles=0 and radii=0 once raised ZeroDivisionError, angles=-3 a
    # failure to stack no polynomials, and h_angles=0 was accepted
    (lambda: modulus(_F2, 0.5, make_power(2.0), angles=0),
     "angles must be >= 1"),
    (lambda: modulus(_F2, 0.5, make_power(2.0), angles=-3),
     "angles must be >= 1"),
    (lambda: modulus(_F2, 0.5, make_section7(0.05), radii=0),
     "radii must be >= 1"),
    (lambda: modulus(_F2, 0.5, make_power(2.0), angles=8.0),
     "angles must be an integer, not 8.0"),
    (lambda: modulus(random_poly_1d(3, 0), 0.5, make_power(2.0), radii=1.5),
     "radii must be an integer, not 1.5"),
    (lambda: params_power2(h_angles=0), "h_angles must be >= 1"),
    (lambda: params_power2(h_radii=-1), "h_radii must be >= 1"),
    (lambda: params_power2(h_radii=None),
     "h_radii must be an integer, not None"),
    # a float n_max once failed later, in np.ldexp, with a bare TypeError
    (lambda: params_power2(n_max=4.0), "n_max must be an integer, not 4.0"),
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
