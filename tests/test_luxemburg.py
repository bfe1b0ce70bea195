"""Luxemburg norms: closed forms, oracles, and norm axioms."""

import dataclasses
import math
import tracemalloc
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orlicheck.besov import BesovParams, _polar, besov_norm_classical
from orlicheck.luxemburg import (_lux_root, _magnitudes, embed_l2_check,
                                 modular_seq,
                                 norm_fun, norm_seq, poly_norm, poly_norms)
from orlicheck import trig
from orlicheck.numerics import chandrupatla
from orlicheck.sampling import random_poly_1d, random_poly_on_frame
from orlicheck.trig import TrigPoly, coefficient_boxes, frame, sample_on_grid
from orlicheck.young import (YoungFunctionError, make_logpower, make_power,
                             make_section7, make_tabulated)


def test_power2_is_euclidean():
    phi = make_power(2.0)
    assert norm_seq(phi, [3.0, 4.0]) == pytest.approx(5.0, rel=1e-12, abs=0.0)


def test_zero_sequence_is_zero():
    for phi in (make_power(2.0), make_section7(0.05)):
        assert norm_seq(phi, [0.0, 0.0, 0.0]) == 0.0
    assert norm_seq(make_power(2.0), []) == 0.0


def test_norm_seq_logpower_against_lambda_scan_oracle():
    # oracle: dense lambda scan for the unit-modular level
    phi = make_logpower(1.0, 1.0)
    x = np.array([0.1, 0.2, 0.05])
    lo = float(np.max(x)) / float(phi.inverse(3.0))
    hi = np.sum(x) / float(phi.inverse(1.0 / 3.0)) + 1.0
    lams = np.linspace(lo, hi, 1_000_001)
    mods = np.array([modular_seq(phi, x, l) for l in lams[::1000]])
    # refine around the crossing on the coarse scan, then finish fine
    idx = int(np.argmin(np.abs(mods - 1.0)))
    centre = lams[::1000][idx]
    fine = np.linspace(centre - (hi - lo) / 1000, centre + (hi - lo) / 1000,
                       200_001)
    mods_fine = np.array([modular_seq(phi, x, l) for l in fine[::100]])
    oracle = fine[::100][int(np.argmin(np.abs(mods_fine - 1.0)))]
    value = norm_seq(phi, x)
    assert value == pytest.approx(oracle, abs=(hi - lo) / 1e5)
    assert modular_seq(phi, x, value) == pytest.approx(1.0, abs=1e-9)


def test_unit_modular_at_norm():
    rng = np.random.default_rng(11)
    for phi in (make_power(1.5), make_power(3.0), make_section7(0.05)):
        x = rng.standard_normal(32)
        lam = norm_seq(phi, x)
        assert modular_seq(phi, x, lam) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# function norms on sampled grids
# ---------------------------------------------------------------------------

def test_constant_function_norm():
    # modular is Phi(c / lambda), so the norm is c / Phi^{-1}(1)
    c = 2.5
    for phi in (make_power(2.0), make_section7(0.05), make_logpower(1.0, 1.0)):
        samples = np.full(64, c)
        expect = c / float(phi.inverse(1.0))
        assert norm_fun(phi, samples) == pytest.approx(expect, rel=1e-11,
                                                       abs=0.0)


def test_indicator_of_half_torus():
    phi = make_power(2.0)
    samples = np.zeros(256)
    samples[:128] = 1.0
    assert norm_fun(phi, samples) == pytest.approx(math.sqrt(0.5), rel=1e-12,
                                                   abs=0.0)


def test_cosine_power4_closed_form():
    # mean of cos^4 over the circle is 3/8, so the Luxemburg norm is (3/8)^{1/4}
    phi = make_power(4.0)
    f = TrigPoly(1, {(1,): 0.5, (-1,): 0.5})
    value = poly_norm(phi, f, exact_l2=False)
    assert value == pytest.approx((3.0 / 8.0) ** 0.25, rel=1e-9, abs=0.0)


def test_empty_grid_rejected():
    with pytest.raises(ValueError):
        norm_fun(make_power(2.0), [])


def test_poly_norm_power2_shortcut_matches_quadrature():
    rng = np.random.default_rng(5)
    coeffs = {(k,): complex(*rng.standard_normal(2)) for k in range(-6, 7)}
    f = TrigPoly(1, coeffs)
    phi = make_power(2.0)
    fast = poly_norm(phi, f)
    slow = poly_norm(phi, f, exact_l2=False)
    assert fast == pytest.approx(slow, rel=1e-9, abs=0.0)


def random_poly2(degree, seed):
    rng = np.random.default_rng(seed)
    return TrigPoly(2, {(k, l): complex(*rng.standard_normal(2))
                        for k in range(-degree, degree + 1)
                        for l in range(-degree, degree + 1)})


def test_poly_norms_of_a_box_stack():
    # the stack of degree 2 holds a polynomial of that degree, a zero row
    # and a constant, whose modulus makes every grid exact
    phi = make_section7(0.05)
    fs = [random_poly_1d(2, 3), TrigPoly(1, {}), TrigPoly(1, {(0,): 2.5})]
    got = poly_norms(phi, coefficient_boxes(fs, 2))
    want = [poly_norm(phi, f) if f.coeffs else 0.0 for f in fs]
    assert got.tolist() == pytest.approx(want, rel=1e-12, abs=0.0)
    assert got[1] == 0.0
    assert poly_norms(phi, coefficient_boxes(fs, 2)[:0]).shape == (0,)

    # a 2-D stack of degree 3 on grids 32 to 512: a zero row in the middle
    # and a row of degree 1, g less its top coefficients, which cancel
    # exactly, each normed on the stack's grids (oversample 16 gives degree
    # 1 the same 32-point start); chunks of 1 and 3 rows at m = 512, the
    # last one partial, and of 4 and 3 rows at 256 reuse the buffers
    g = random_poly2(3, 11)
    low = g - TrigPoly(2, {k: c for k, c in g.coeffs.items()
                           if max(map(abs, k)) > 1})
    fs = [random_poly2(3, seed) for seed in range(3)]
    fs += [TrigPoly(2, {}), low] + [random_poly2(3, seed) for seed in (3, 4)]
    boxes = coefficient_boxes(fs, 3)
    want = [poly_norm(phi, f, exact_l2=False,
                      oversample=8 if f.degree == 3 else 16)
            if f.coeffs else 0.0 for f in fs]
    assert low.degree == 1
    for block in (trig.SAMPLE_BLOCK, 3 * 512 ** 2):
        with mock.patch.object(trig, "SAMPLE_BLOCK", block):
            got = poly_norms(phi, boxes)
        assert got.tolist() == pytest.approx(want, rel=1e-13, abs=0.0), block
        assert got[3] == 0.0


def test_poly_norms_holds_one_chunk_of_samples():
    # the 16-row stack of a besov_section7 modulus (degree 3, 2-D, 2 radii
    # x 8 angles up to t = 0.5, grids 32 to 512): each grid is sampled
    # through one complex and one float buffer of SAMPLE_BLOCK points; the
    # allowance holds the exponential matrices, built on first use (110 KB),
    # and the first product of the matrix route (16 rows x 128 x 7 complex
    # at m = 128, 230 KB); the peak is 6.7 MB, 8.5 MB when every chunk was
    # sampled into fresh arrays
    f = random_poly2(3, 0)
    hs = _polar(2, np.array([[0.25, 0.5]]),
                2.0 * np.pi * np.arange(8)[None] / 8)
    boxes = coefficient_boxes([f.translate(h) for h in hs], 3)
    boxes -= coefficient_boxes([f], 3)
    phi = make_section7(0.05)
    buffers = trig.SAMPLE_BLOCK * (16 + 8)
    tracemalloc.start()
    try:
        poly_norms(phi, boxes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < buffers + 2 ** 20


# ---------------------------------------------------------------------------
# norm axioms (property-based)
# ---------------------------------------------------------------------------

@st.composite
def short_vectors(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    return np.array([draw(st.floats(min_value=-100.0, max_value=100.0))
                     for _ in range(n)])


@settings(max_examples=30, deadline=None)
@given(short_vectors(), st.floats(min_value=-50.0, max_value=50.0))
# subnormal data: the unscaled bracket max|x| / Phi^{-1}(n) underflows to 0
@example(np.array([5e-324] * 3), 2.0)
@example(np.array([0.0, 0.0, 5e-324]), 2.0)
def test_homogeneity(x, c):
    phi = make_section7(0.05)
    lhs = norm_seq(phi, c * x)
    rhs = abs(c) * norm_seq(phi, x)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_subnormal_power_data_has_finite_norm():
    assert norm_seq(make_power(1.5), [0.0, 0.0, 5e-324]) == 5e-324


def test_nan_data_is_rejected():
    with pytest.raises(YoungFunctionError, match="NaN"):
        norm_seq(make_section7(0.05), [math.nan, 1.0])


@pytest.mark.parametrize("route", [norm_seq, norm_fun, embed_l2_check])
def test_infinite_data_is_rejected_before_scaling(route):
    # no division warning on the way, and the error names the infinity
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="infinite entry"):
            route(make_section7(0.05), [1.0, math.inf])


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    n = rng.integers(1, 24)
    x = rng.standard_normal(n)
    y = rng.standard_normal(n)
    for phi in (make_power(1.5), make_section7(0.05)):
        assert norm_seq(phi, x + y) <= (norm_seq(phi, x)
                                        + norm_seq(phi, y) + 1e-10)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_pointwise_monotonicity(seed):
    rng = np.random.default_rng(seed)
    n = rng.integers(1, 24)
    x = rng.standard_normal(n)
    y = np.abs(x) + rng.random(n)
    phi = make_power(2.5)
    assert norm_seq(phi, x) <= norm_seq(phi, y) + 1e-12


def test_power_family_matches_p_norm():
    # cross-check with the closed-form p-norm, sequence and sampled variants
    rng = np.random.default_rng(42)
    for p in (1.5, 2.0, 3.0):
        phi = make_power(p)
        x = rng.standard_normal(40)
        expect = float(np.sum(np.abs(x) ** p) ** (1.0 / p))
        assert norm_seq(phi, x) == pytest.approx(expect, rel=1e-11, abs=0.0)
        s = rng.standard_normal(128)
        expect_fun = float(np.mean(np.abs(s) ** p) ** (1.0 / p))
        assert norm_fun(phi, s) == pytest.approx(expect_fun, rel=1e-11,
                                                 abs=0.0)


# ---------------------------------------------------------------------------
# l2 embedding
# ---------------------------------------------------------------------------

def test_embed_l2_power2_equality():
    rep = embed_l2_check(make_power(2.0), [1.0, 2.0, 2.0])
    assert rep.passed
    assert rep.margin == pytest.approx(0.0, abs=1e-10)


def test_embed_l2_unit_vector_normalised():
    phi = make_power(2.0)  # Phi^{-1}(1) = 1
    rep = embed_l2_check(phi, [1.0, 0.0, 0.0])
    assert rep.quantities["l2"] == pytest.approx(1.0)
    assert rep.quantities["lux"] == pytest.approx(1.0, rel=1e-12, abs=0.0)


def test_embed_l2_section7_random_batch():
    phi = make_section7(0.05)
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = rng.standard_normal(rng.integers(1, 40))
        rep = embed_l2_check(phi, x)
        assert rep.passed
        assert rep.margin >= -1e-10 * max(rep.quantities["lux"], 1.0)


@pytest.mark.parametrize("data", [
    np.array([3.0, -4.0, 0.0, 5e-324, -1e300]),
    np.array([[3.0 + 4.0j, -1e-200j], [0.0, 1e300 - 1e300j]]),
    np.array([-7, 0, 2 ** 53 + 1, -(2 ** 62)]),
    [1, -2.5, 3j],
])
def test_magnitudes_are_the_old_complex_cast_bit_for_bit(data):
    a = _magnitudes(data)
    old = np.abs(np.asarray(data, dtype=complex).ravel()).astype(float)
    assert a.dtype == np.float64 and a.tobytes() == old.tobytes()


@pytest.mark.parametrize("phi", [make_power(2.0), make_section7(0.05)])
def test_norms_leave_the_callers_samples_unwritten(phi):
    # _lux_root scales its rows in place, so it must get a fresh array
    rng = np.random.default_rng(4)
    for x in (rng.standard_normal(64),
              rng.standard_normal(64) + 1j * rng.standard_normal(64)):
        keep = x.copy()
        norm_seq(phi, x)
        norm_fun(phi, x)
        embed_l2_check(phi, x)
        assert x.tobytes() == keep.tobytes()


def test_complex_sequences_use_modulus():
    phi = make_power(2.0)
    z = np.array([3.0 + 4.0j, 0.0])
    assert norm_seq(phi, z) == pytest.approx(5.0, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# the root against a 50-digit oracle, and its cost
# ---------------------------------------------------------------------------

def _mp_power(p):
    return lambda t: t ** p


def _mp_logpower(p0, gamma, switch=0.5):
    # t^p0 / |ln t|^gamma up to the switch, its tangent line beyond
    ls = -mpmath.log(switch)
    value = mpmath.mpf(switch) ** p0 * ls ** (-gamma)
    slope = mpmath.mpf(switch) ** (p0 - 1) * ls ** (-gamma) * (p0 + gamma / ls)
    return lambda t: (t ** p0 * (-mpmath.log(t)) ** (-gamma) if t <= switch
                      else value + slope * (t - switch))


def _mp_section7(alpha):
    # Phi^{-1} from its three-branch definition, with the affine middle
    # branch fitted for continuity; Phi by a root in the log domain
    alpha = mpmath.mpf(alpha)
    r = mpmath.exp(2 * mpmath.e ** 2)
    h = alpha * mpmath.e ** 2 / 2
    p = (r * mpmath.exp(-h) - mpmath.exp(h) / r) / (r - 1 / r)
    q = mpmath.exp(h) / r - p / r

    def log_inverse(y):
        u = mpmath.exp(y)
        if u < 1 / r:
            w = -y / 2
            return y + alpha * w / mpmath.log(w)
        if u < r:
            return mpmath.log(p * u + q)
        v = y / 2
        return y - alpha * v / mpmath.log(v)

    def phi(t):
        z = mpmath.log(t)
        return mpmath.exp(mpmath.findroot(lambda y: log_inverse(y) - z, z))

    return phi


def _mp_tabulated(points):
    pts = [(mpmath.mpf(0), mpmath.mpf(0))] + [
        (mpmath.mpf(t), mpmath.mpf(u)) for t, u in points]

    def phi(t):
        for (t0, u0), (t1, u1) in zip(pts, pts[1:]):
            if t <= t1:
                break
        return u0 + (u1 - u0) * (t - t0) / (t1 - t0)

    return phi


ORACLE_PHIS = {
    "power1.5": (make_power(1.5), _mp_power(mpmath.mpf(1.5))),
    "power3": (make_power(3.0), _mp_power(3)),
    "logpower1,1": (make_logpower(1.0, 1.0), _mp_logpower(1, 1)),
    "section7": (make_section7(0.05), _mp_section7(0.05)),
    "tabulated": (make_tabulated([(1.0, 1.0), (2.0, 3.0), (3.0, 7.0)]),
                  _mp_tabulated([(1, 1), (2, 3), (3, 7)])),
}


ORACLE_DATA = ["sparse", "spiky", "lognormal"]


def _oracle_data(name):
    rng = np.random.default_rng(17)
    if name == "sparse":
        return np.array([0.0] * 999 + [1.0])
    if name == "spiky":
        return np.concatenate([1e-3 * rng.random(100), [5.0, 7.0]])
    return rng.lognormal(0.0, 2.0, 100)


def _oracle_rows():
    """The oracle data sets as rows padded with zeros to a common length,
    then a row of zeros."""
    rows = [_oracle_data(name) for name in ORACLE_DATA]
    n = max(map(len, rows))
    return np.array([np.pad(r, (0, n - len(r))) for r in rows]
                    + [np.zeros(n)])


def _mp_norm(phi, phi_mp, x, average):
    """Root of w * sum Phi(|x_i| / lambda) = 1 at 50 digits.

    The bracket is twice as wide as the one given by the largest term
    alone (lambda <= norm at max|x| / Phi^{-1}(1/w)) and by the sup bound
    (lambda >= norm at max|x| / Phi^{-1}(1/(n w))).
    """
    n = len(x)
    w = 1.0 / n if average else 1.0
    top = float(np.max(np.abs(x)))
    lo = 0.5 * top / float(phi.inverse(1.0 / w))
    hi = 2.0 * top / float(phi.inverse(1.0 / (n * w)))
    with mpmath.workdps(50):
        xs = [mpmath.mpf(float(v)) for v in np.abs(x) if v != 0]
        w = mpmath.mpf(1) / n if average else mpmath.mpf(1)
        lam = mpmath.findroot(
            lambda l: w * mpmath.fsum(phi_mp(v / l) for v in xs) - 1,
            (mpmath.mpf(lo), mpmath.mpf(hi)), solver="anderson")
        return float(lam)


@pytest.mark.parametrize("data", ORACLE_DATA)
@pytest.mark.parametrize("phi_name", sorted(ORACLE_PHIS))
def test_norm_matches_50_digit_oracle(phi_name, data):
    phi, phi_mp = ORACLE_PHIS[phi_name]
    x = _oracle_data(data)
    for fn, average in ((norm_seq, False), (norm_fun, True)):
        expect = _mp_norm(phi, phi_mp, x, average)
        assert fn(phi, x) == pytest.approx(expect, rel=1e-12,
                                           abs=0.0), fn.__name__
    # the same data as one row of a stack solved at once; padding changes
    # the average, so the oracle sees the padded row
    rows = _oracle_rows()
    r = ORACLE_DATA.index(data)
    others = np.arange(len(ORACLE_DATA)) != r
    for average in (False, True):
        norms = _lux_root(phi, rows.copy(), average)
        assert norms[-1] == 0.0
        expect = _mp_norm(phi, phi_mp, rows[r], average)
        assert norms[r] == pytest.approx(expect, rel=1e-12, abs=0.0), average
        # a row does not change when its neighbours do, or are gone
        moved = rows.copy()
        moved[:-1][others] *= 3.0
        assert _lux_root(phi, moved, average)[r] == norms[r]
        assert _lux_root(phi, rows[[r]].copy(), average)[0] == norms[r]


def _counting(phi):
    """Copy of phi whose forward and inverse maps count their calls."""
    calls = {"forward": 0, "inverse": 0}

    def counted(name, fn):
        def call(t):
            calls[name] += 1
            return fn(t)
        return call

    return dataclasses.replace(
        phi, _forward=counted("forward", phi._forward),
        _inverse=counted("inverse", phi._inverse)), calls


def test_section7_roots_need_few_modular_evaluations():
    # one forward call per modular evaluation: the guards evaluate both
    # bracket ends and hand those values to the Chandrupatla solve, which
    # then needs a few more.  On these data Phi is affine on the range of
    # |f| / lambda, so Jensen's end is the root and the two guard
    # evaluations are all it takes
    rng = np.random.default_rng(3)
    f = TrigPoly(2, {(k, l): complex(*rng.standard_normal(2))
                     for k in range(-3, 4) for l in range(-3, 4)})
    shift_difference = (f.translate((0.3, -0.2)) - f).sample_uniform(512)
    frame_samples = sample_on_grid(random_poly_on_frame(6, seed=0), frame(6))
    for samples in (shift_difference, frame_samples):
        phi, calls = _counting(make_section7(0.05))
        assert norm_fun(phi, samples) > 0.0
        assert calls["forward"] <= 8


def test_section7_root_cost_does_not_depend_on_rounding():
    # Jensen's end is the root on these grids too: the scaled samples lie on
    # the affine branch of section7, so it is taken without a Phi call.  Its
    # rounded modular lands exactly on 1, or one or two units below it,
    # depending on the polynomial, and a solve that checked it would cost
    # two guard evaluations, or a doubled end and a solve (4 or 6 forward
    # calls on half of them); taken in closed form it costs none on any
    for seed in range(8):
        f = random_poly_on_frame(4, seed)
        for m in (64, 128):
            phi, calls = _counting(make_section7(0.05))
            assert norm_fun(phi, f.sample_uniform(m)) > 0.0
            assert calls["forward"] == 0


def test_classical_section7_norm_cost():
    # the shift norms of each modulus stage share their Phi calls: one
    # stacked root per grid, and two inverse calls per grid for the bracket
    # (10114 forward and 4486 inverse calls with one root per shift norm)
    phi, calls = _counting(make_section7(0.05))
    besov_norm_classical(random_poly_1d(3, 0),
                         BesovParams(phi, math.sqrt, n_max=10))
    assert calls["forward"] <= 1011
    assert calls["inverse"] <= 449


# ---------------------------------------------------------------------------
# Jensen's end where Phi is affine on the scaled row
# ---------------------------------------------------------------------------

_LOGNORMAL = np.random.default_rng(23).lognormal(0.0, 1.0, 32)

SHORTCUT_DATA = {
    "lognormal": _LOGNORMAL,
    "narrow": np.linspace(0.95, 1.05, 16),
    "wide": np.linspace(0.2, 1.8, 16),
    "single": np.array([2.0]),
    "ramp": np.linspace(0.5, 1.0, 10),
    "decades": np.geomspace(1.0, 1e-8, 50),
    "padded": np.concatenate([_LOGNORMAL, np.zeros(8)]),
    "subnormal": np.array([3e-310, 1e-310, 2e-310]),
}

# (phi, data, average, where the row scaled by its norm lies).  Zero-padded
# rows close for tabulated, whose first piece starts at 0, and fall back for
# section7.  A row wholly off the pieces of section7 would need more than
# r ~ 2.6e6 entries, and the pieces of tabulated cover [0, oo), so those two
# have straddling rows only; the pieces of tabulated on which an average can
# lie are met by constant rows alone, since Phi^{-1}(1) = 1 is a knot
SHORTCUT_CASES = [
    ("power1.5", "lognormal", False, "off"),
    ("power3", "lognormal", True, "off"),
    ("logpower1,1", "single", False, "on"),
    ("logpower1,1", "narrow", True, "on"),
    ("logpower1,1", "narrow", False, "off"),
    ("logpower1,1", "wide", True, "straddle"),
    ("section7", "lognormal", False, "on"),
    ("section7", "lognormal", True, "on"),
    ("section7", "subnormal", True, "on"),
    ("section7", "decades", False, "straddle"),
    ("section7", "decades", True, "straddle"),
    ("section7", "padded", False, "straddle"),
    ("section7", "padded", True, "straddle"),
    ("tabulated", "ramp", False, "on"),
    ("tabulated", "single", True, "on"),
    ("tabulated", "padded", False, "on"),
    ("tabulated", "subnormal", False, "on"),
    ("tabulated", "wide", True, "straddle"),
]


def _place(phi, scaled):
    """Where the scaled row lies among the affine pieces of phi."""
    lo, hi = scaled.min(), scaled.max()
    if any(a <= lo and hi <= b for a, b in phi.affine_pieces):
        return "on"
    if any(a < hi and lo < b for a, b in phi.affine_pieces):
        return "straddle"
    return "off"


@pytest.mark.parametrize("phi_name, data, average, where", SHORTCUT_CASES)
def test_affine_shortcut_matches_oracle_and_solve(phi_name, data, average,
                                                  where):
    phi, phi_mp = ORACLE_PHIS[phi_name]
    x = SHORTCUT_DATA[data]
    # the norm is homogeneous, and scaling by 2^1000 is exact: the oracle
    # sees normal numbers for the subnormal row
    expect = _mp_norm(phi, phi_mp, x * 2.0 ** 1000, average) / 2.0 ** 1000
    assert _place(phi, x / expect) == where
    counted, calls = _counting(phi)
    got = _lux_root(counted, x[None].copy(), average)[0]
    # a row on a piece is taken at Jensen's end without a Phi call
    assert (calls["forward"] == 0) == (where == "on")
    assert got == pytest.approx(expect, rel=1e-12, abs=0.0)
    solved = _lux_root(dataclasses.replace(phi, affine_pieces=()),
                       x[None].copy(), average)[0]
    assert abs(got - solved) <= 4.0 * np.spacing(solved)


@pytest.mark.parametrize("phi_name", ["logpower1,1", "section7", "tabulated"])
def test_nan_row_beside_closed_rows_is_rejected(phi_name):
    phi = ORACLE_PHIS[phi_name][0]
    rows = np.array([[1.0, 1.0], [math.nan, 1.0], [1.0, 1.0]])
    for average in (False, True):
        with pytest.raises(YoungFunctionError, match="NaN"):
            _lux_root(phi, rows.copy(), average)


@pytest.mark.parametrize("phi", [
    make_power(1.5), make_logpower(1.0, 1.0), make_logpower(1.5, 2.0, 0.1),
    make_section7(0.01), make_section7(0.05), make_section7(0.13),
    make_tabulated([(1.0, 1.0), (2.0, 3.0), (3.0, 7.0)]),
    make_tabulated([(0.5, 0.1)])], ids=repr)
def test_declared_pieces_are_affine(phi):
    pieces = phi.affine_pieces
    assert (len(pieces) == 0) == (phi.kind == "power")
    if phi.kind == "tabulated":
        assert len(pieces) == len(phi.params["points"]) - 1
    for lo, hi in pieces:
        if math.isinf(hi):
            hi = 1e6 * lo
        ends = phi(np.array([lo, hi]))
        for frac in (0.25, 0.5, 0.75):
            t = lo + frac * (hi - lo)
            line = ends[0] + frac * (ends[1] - ends[0])
            assert float(phi(t)) == pytest.approx(line, rel=1e-14,
                                                  abs=0.0), (lo, t)


def test_section7_jensen_end_misses_off_the_affine_branch():
    # as a sequence, 55 % of the entries scaled by the norm lie below t1,
    # where Phi is not affine: the row must go to the solve, whose root
    # Jensen's end misses by about 1.8e-5
    phi, phi_mp = ORACLE_PHIS["section7"]
    x = np.geomspace(1.0, 1e-12, 200)
    expect = _mp_norm(phi, phi_mp, x, False)
    assert _place(phi, x / expect) == "straddle"
    counted, calls = _counting(phi)
    assert _lux_root(counted, x[None].copy(), False)[0] == pytest.approx(
        expect, rel=1e-12, abs=0.0)
    assert calls["forward"] > 0
    jensen = float(np.mean(x)) / float(phi.inverse(1.0 / x.size))
    assert abs(jensen / expect - 1.0) > 1e-6


def test_root_bracket_that_never_closes_raises():
    # a contrived Phi that vanishes above 1e-3: the first row's modular
    # stays 0 however far its upper end is doubled, the second row's tiny
    # entry closes its bracket
    base = make_power(2.0)
    phi = dataclasses.replace(
        base, _forward=lambda t: np.where(np.asarray(t) < 1e-3, 1e9 * t, 0.0))
    rows = np.array([[1.0, 1.0], [1.0, 1e-6]])
    with pytest.raises(RuntimeError, match="1 of 2 rows"):
        _lux_root(phi, rows, True)
