"""Construction, inversion, and structural checks of Young functions."""

import collections
import dataclasses
import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orlicheck.young import (SECTION7_LOG_R, SECTION7_R, YoungFunctionError,
                             _piecewise,
                             check_inverse_product, check_sqrt_concavity,
                             check_supermultiplicativity, make_logpower,
                             make_power, make_section7, make_tabulated,
                             supermultiplicativity_pairs, validate)

E2 = math.e ** 2


def all_kinds():
    return [
        make_power(1.5),
        make_power(2.0),
        make_power(3.0),
        make_logpower(1.0, 1.0),
        make_logpower(1.2, 1.5),
        make_section7(0.05),
        make_tabulated([(0.5, 0.2), (1.0, 1.0), (2.0, 4.0), (8.0, 64.0)]),
    ]


# ---------------------------------------------------------------------------
# power
# ---------------------------------------------------------------------------

def test_power_basic_values():
    phi = make_power(2.0)
    assert phi(3.0) == 9.0
    assert phi.inverse(4.0) == 2.0


def test_power_roundtrip_value():
    phi = make_power(1.5)
    assert phi(phi.inverse(7.0)) == pytest.approx(7.0, abs=1e-10)


@pytest.mark.parametrize("p", [1.0, 0.5, -2.0])
def test_power_rejects_p_at_most_one(p):
    with pytest.raises(YoungFunctionError):
        make_power(p)


# ---------------------------------------------------------------------------
# logpower
# ---------------------------------------------------------------------------

def test_logpower_closed_form_point():
    # p0=1, gamma=1: Phi(1/e) = (1/e) / |ln(1/e)| = 1/e
    phi = make_logpower(1.0, 1.0)
    assert phi(math.exp(-1.0)) == pytest.approx(math.exp(-1.0), rel=1e-14,
                                                abs=0.0)
    assert phi(0.0) == 0.0


def test_logpower_inverse_vs_grid_scan_oracle():
    # independent oracle: dense argument scan of the closed form
    phi = make_logpower(6.0 / 5.0, 1.3)
    u = float(phi(0.3))
    ts = np.linspace(0.25, 0.35, 1_000_001)
    vals = ts ** 1.2 * (-np.log(ts)) ** (-1.3)
    t_oracle = ts[np.argmin(np.abs(vals - u))]
    x = float(phi.inverse(u))
    assert x == pytest.approx(0.3, abs=1e-9)
    assert x == pytest.approx(t_oracle, abs=1e-7)  # oracle grid resolution


@pytest.mark.parametrize("p0, gamma, switch",
                         [(1.2, 1.5, 0.5), (1.2, 1.3, 0.5), (1.0, 3.0, 0.3)])
def test_logpower_inverts_its_switch_value(p0, gamma, switch):
    # the rounded ln Phi(switch) can land one ulp above r(ln switch)
    phi = make_logpower(p0, gamma, switch)
    assert float(phi.inverse(phi(switch))) == pytest.approx(switch, rel=1e-14,
                                                            abs=0.0)


@pytest.mark.parametrize("p0, gamma, switch",
                         [(1.2, 1.5, 0.5), (1.0, 1.0, 0.5), (2.0, 1.0, 0.5),
                          (1.5, 0.5, 0.3)])
def test_logpower_inverse_matches_mpmath(p0, gamma, switch):
    # oracle: p0*y - gamma*ln(-y) = ln u solved at 40 digits, t = e^y
    phi = make_logpower(p0, gamma, switch)
    us = np.geomspace(1e-300, float(phi(switch)), 40)
    got = phi.inverse(us)
    with mpmath.workdps(40):
        for u, t in zip(us, got):
            lu = mpmath.log(mpmath.mpf(u))
            y = mpmath.findroot(
                lambda y: p0 * y - gamma * mpmath.log(-y) - lu,
                (lu / p0 - 10 * gamma - 1, mpmath.log(switch) + 1e-30),
                solver="anderson")
            assert abs(t / mpmath.exp(y) - 1) <= 2e-13, u


def _logpower_log_inverse_oracle(y):
    # make_logpower(1.2, 1.5): below Phi(1/2) solve 1.2 Y - 1.5 ln(-Y) = y,
    # above it invert the tangent line at 1/2
    p0, gamma, s = mpmath.mpf("1.2"), mpmath.mpf("1.5"), mpmath.mpf("0.5")
    ls = -mpmath.log(s)
    phi_s = s ** p0 * ls ** -gamma
    if y > mpmath.log(phi_s):
        slope = s ** (p0 - 1) * ls ** -gamma * (p0 + gamma / ls)
        return mpmath.log(s + (mpmath.exp(y) - phi_s) / slope)
    return mpmath.findroot(lambda v: p0 * v - gamma * mpmath.log(-v) - y,
                           (y / p0 - 10 * gamma - 1, mpmath.log(s) + 1e-30),
                           solver="anderson")


def _tabulated_log_inverse_oracle(y):
    # make_tabulated([(1, 1), (2, 4)]): slopes 1, 3, and 3 past (2, 4)
    u = mpmath.exp(y)
    t = u if u <= 1 else 1 + (u - 1) / 3
    return mpmath.log(t)


@pytest.mark.parametrize("phi, oracle", [
    (make_logpower(1.2, 1.5), _logpower_log_inverse_oracle),
    (make_tabulated([(1, 1), (2, 4)]), _tabulated_log_inverse_oracle),
], ids=["logpower", "tabulated"])
def test_log_inverse_far_outside_float_range_matches_mpmath(phi, oracle):
    ys = [-1e5, -2000.0, -800.0, -700.0, 0.0, 700.0, 800.0, 2000.0, 1e5]
    got = phi.log_inverse(np.array(ys))
    assert np.all(np.isfinite(got))
    with mpmath.workdps(50):
        for y, v in zip(ys, got.tolist()):
            want = oracle(mpmath.mpf(y))
            assert abs(v - want) <= max(1e-12, 1e-15 * abs(want)), y
    assert phi.log_inverse([-np.inf, np.inf]).tolist() == [-np.inf, np.inf]
    with pytest.raises(YoungFunctionError, match="NaN"):
        phi.log_inverse([0.0, np.nan])


def test_logpower_rejects_bad_params():
    with pytest.raises(YoungFunctionError):
        make_logpower(0.9, 1.0)
    with pytest.raises(YoungFunctionError):
        make_logpower(1.0, 0.0)


def test_logpower_extension_is_convex_and_continuous():
    phi = make_logpower(1.0, 1.0)
    eps = 1e-9
    assert phi(0.5 - eps) == pytest.approx(phi(0.5 + eps), rel=1e-6, abs=0.0)
    v = validate(phi)
    assert v.passed


# ---------------------------------------------------------------------------
# section7
# ---------------------------------------------------------------------------

def test_section7_r_constant():
    assert SECTION7_R == pytest.approx(math.exp(2.0 * E2), rel=1e-15, abs=0.0)
    phi = make_section7(0.05)
    assert phi.params["r"] == SECTION7_R


def test_section7_p_bounds():
    # the slope of the middle branch must lie strictly in (1/(2e), 1)
    for alpha in (0.01, 0.05, 0.1):
        p = make_section7(alpha).params["p"]
        assert 1.0 / (2.0 * math.e) < p < 1.0


def test_section7_q_bounds():
    phi = make_section7(0.05)
    p, q = phi.params["p"], phi.params["q"]
    assert 0.0 < q <= 10.0 / SECTION7_R * p


def test_section7_inverse_product_identity_outer_branches():
    phi = make_section7(0.05)
    x = SECTION7_R ** 2
    assert float(phi.inverse(x)) * float(phi.inverse(1.0 / x)) == pytest.approx(
        1.0, rel=1e-12, abs=0.0)


def test_section7_continuity_at_knots():
    phi = make_section7(0.05)
    r = SECTION7_R
    for knot in (1.0 / r, r):
        left = float(phi.inverse(knot * (1.0 - 1e-13)))
        right = float(phi.inverse(knot * (1.0 + 1e-13)))
        assert left == pytest.approx(right, rel=1e-12, abs=0.0)


def _section7_log_inv_masked(phi, y):
    """Oracle: the three-branch section7 log inverse, every branch masked."""
    alpha, p, q = (phi.params[k] for k in ("alpha", "p", "q"))
    y = np.asarray(y, dtype=float).ravel()
    out = np.empty_like(y)
    low, high = y < -SECTION7_LOG_R, y >= SECTION7_LOG_R
    mid = ~(low | high)
    w = -0.5 * y[low]
    out[low] = y[low] + alpha * w / np.log(w)
    out[mid] = np.log(p * np.exp(y[mid]) + q)
    v = 0.5 * y[high]
    out[high] = y[high] - alpha * v / np.log(v)
    return out


def _section7_arguments():
    rng = np.random.default_rng(7)
    lr = SECTION7_LOG_R
    high = np.concatenate(([lr, np.nextafter(lr, np.inf), 1e300, np.inf],
                           rng.uniform(lr, 2e4, 300)))
    low = np.concatenate(([np.nextafter(-lr, -np.inf), -1e300, -np.inf],
                          rng.uniform(-2e4, -lr, 300)))
    mixed = rng.permutation(np.concatenate(
        (high[:50], low[:50], [-lr, 0.0, np.nextafter(lr, 0.0)],
         rng.uniform(-lr, lr, 50))))
    return {"high": high, "low": low, "mixed": mixed,
            "empty": np.array([]), "scalar": 31.5,
            "2d-high": high[4:304].reshape(20, 15),
            "2d-mixed": mixed[:150].reshape(3, 50)}


@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.13])
@pytest.mark.parametrize("case", list(_section7_arguments()))
def test_section7_log_inverse_is_bitwise_the_masked_formula(alpha, case):
    # arrays wholly on the high branch take an in-place route without masks;
    # the ends -inf and inf map to themselves, where the formula gives NaN
    phi = make_section7(alpha)
    y = _section7_arguments()[case]
    got = phi.log_inverse(y)
    assert np.shape(got) == np.shape(y)
    if np.ndim(y) == 0:
        assert isinstance(got, float)
    got, y = np.ravel(got), np.ravel(y)
    finite = np.isfinite(y)
    want = _section7_log_inv_masked(phi, y[finite])
    assert (got[finite].view(np.uint64).tolist()
            == want.view(np.uint64).tolist())
    assert got[~finite].tolist() == y[~finite].tolist()


@pytest.mark.parametrize("alpha", [0.0, math.exp(-2.0), 0.2, -0.1])
def test_section7_rejects_alpha_out_of_range(alpha):
    with pytest.raises(YoungFunctionError):
        make_section7(alpha)


@pytest.mark.parametrize("points,where", [
    # the slope falls from the anchor segment's 1 to 0.1: Jensen's
    # inequality fails on it (averaged modular 0.85 where convexity gives 1)
    ([(1.0, 1.0), (2.0, 1.1), (3.0, 10.0)], r"\(1\.0, 1\.0\)"),
    ([(1.0, 1.0), (2.0, 3.0), (3.0, 4.0)], r"\(2\.0, 3\.0\)"),
], ids=["anchor", "inner"])
def test_tabulated_rejects_non_convex_table(points, where):
    with pytest.raises(YoungFunctionError, match="not convex.*" + where):
        make_tabulated(points)


def test_tabulated_accepts_collinear_breakpoints():
    # equal slopes that differ only by the rounding of their differences
    t = np.linspace(0.1, 100.0, 1000)
    phi = make_tabulated(list(zip(t, 7.0 * t)))
    assert float(phi(50.0)) == pytest.approx(350.0, rel=1e-12, abs=0.0)


def test_tabulated_matches_interpolation_across_many_segments():
    # one call spans all 200 segments and the run past the last breakpoint
    t = np.geomspace(0.01, 100.0, 200)
    phi = make_tabulated(list(zip(t, t ** 2)))
    ts, us = np.array(phi.params["points"]).T
    end = (us[-1] - us[-2]) / (ts[-1] - ts[-2])
    x = np.geomspace(1e-3, 1e5, 5000)
    fwd = np.where(x > ts[-1], us[-1] + end * (x - ts[-1]),
                   np.interp(x, ts, us))
    inv = np.where(x > us[-1], ts[-1] + (x - us[-1]) / end,
                   np.interp(x, us, ts))
    assert np.allclose(phi(x), fwd, rtol=1e-15, atol=0.0)
    assert np.allclose(phi.inverse(x), inv, rtol=1e-15, atol=0.0)
    assert np.allclose(phi.log_inverse(np.log(x)), np.log(inv), rtol=0.0,
                       atol=1e-13)


def test_section7_alpha_ln_r_constraint():
    # the admissibility rule behind the alpha < e^{-2} precondition
    alpha = math.exp(-2.0) * 0.999
    assert alpha * (2.0 * E2) / math.log(2.0 * E2) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# shared invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("phi", all_kinds(), ids=lambda p: repr(p))
def test_roundtrip_on_log_grid(phi):
    u = np.geomspace(1e-6, 1e6, 1000)
    back = phi(phi.inverse(u))
    assert np.max(np.abs(back / u - 1.0)) <= 1e-9


@pytest.mark.parametrize("phi", all_kinds(), ids=lambda p: repr(p))
def test_validate_passes(phi):
    v = validate(phi)
    assert v.passed
    assert v.roundtrip_max_rel <= 1e-9
    assert v.min_slope_increment >= -1e-12
    assert v.strictly_increasing


@pytest.mark.parametrize("phi", all_kinds(), ids=lambda p: repr(p))
def test_log_inverse_breaks_are_the_log_values_of_the_piece_ends(phi):
    # both tuples come from one list of cuts: the finite positive ends of
    # the affine pieces are cuts, and so is each break
    ends = {e for piece in phi.affine_pieces for e in piece
            if 0.0 < e < math.inf}
    got = sorted(float(np.log(phi(e))) for e in ends)
    want = sorted(set(phi.log_inverse_breaks))
    assert len(got) == len(want)
    assert np.allclose(got, want, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("phi", [make_power(1.5),
                                 make_tabulated([(1.0, 2.0)])],
                         ids=lambda p: p.kind)
def test_one_piece_maps_take_arrays_with_ends_whole(phi):
    # a one-piece table takes the general route: its formula sees only the
    # entries that are not ends, every such entry gets the bits of a call
    # without ends, and no end raises a warning
    calls = []

    def formula(x):
        calls.append(x.size)
        return 2.0 * x

    kernel = _piecewise(0.0, [], [formula], "Phi must be >= 0 and not NaN")
    assert kernel(np.array([0.0, 1.0, math.inf])).tolist() == [
        0.0, 2.0, math.inf]
    assert calls == [1]
    x = np.random.default_rng(0).uniform(0.0, 3.0, 512)
    x[::47] = 0.0
    x[5] = math.inf
    y = np.full_like(x, -math.inf)
    y[x > 0] = np.log(x[x > 0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn, arg, low in ((phi.forward, x, 0.0), (phi.inverse, x, 0.0),
                             (phi.log_inverse, y, -math.inf)):
            got = fn(arg)
            ends = (arg == low) | (arg == math.inf)
            assert got[ends].tolist() == arg[ends].tolist()
            assert got[~ends].tolist() == fn(arg[~ends]).tolist()


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_small_argument_ratio_power(p):
    phi = make_power(p)
    assert phi(1e-8) / 1e-8 < 1e-4


def test_zero_maps_to_zero():
    # every map fixes its ends, infinities included, without a NaN on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for phi in all_kinds():
            assert phi(0.0) == 0.0
            assert phi.inverse(0.0) == 0.0
            assert phi(math.inf) == math.inf
            assert phi.inverse(math.inf) == math.inf
            assert phi.log_inverse([-math.inf, math.inf]).tolist() == [
                -math.inf, math.inf]


ONE_OF_EACH_KIND = [make_power(1.5), make_logpower(1.0, 1.0),
                    make_section7(0.05),
                    make_tabulated([(1.0, 1.0), (2.0, 4.0)])]


@pytest.mark.parametrize("phi", ONE_OF_EACH_KIND, ids=lambda p: p.kind)
def test_nan_argument_is_rejected(phi):
    for fn in (phi, phi.inverse, phi.log_inverse):
        with pytest.raises(YoungFunctionError, match="NaN"):
            fn(np.array([1.0, math.nan]))


@pytest.mark.parametrize("phi", all_kinds(), ids=lambda p: p.kind)
def test_kernels_reject_arguments_outside_their_domain(phi):
    # the table's kernels check their own domain, so one called without its
    # front hands no formula a NaN or a negative, with the front's message
    for kernel, what, starts_at_zero in (
            (phi._forward, "Phi must be >= 0 and not NaN", True),
            (phi._inverse, "Phi^{-1} must be >= 0 and not NaN", True),
            (phi._log_inverse, "Phi^{-1} must not be NaN", False)):
        bad = [np.array([1.0, math.nan]), np.array([math.nan])]
        if starts_at_zero:
            bad += [np.array([2.0, -1e-300]), np.array([-1.0, 0.0, 3.0])]
        for x in bad:
            with pytest.raises(YoungFunctionError,
                               match=f"^argument of {re.escape(what)}$"):
                kernel(x)
        if not starts_at_zero:
            assert np.isfinite(kernel(np.array([-1.0, 0.0, 3.0]))).all()


# arguments of every shape the front takes; the entries straddle every
# branch of the four kinds (section7's affine piece starts near 1/r)
FRONT_ARGS = {
    "float": 0.7,
    "0-d": np.array(3.0),
    "list": [0.0, 1e-3, 0.7, 2.0],
    "1-d": np.geomspace(1e-5, 1e5, 11),
    "2-d": np.geomspace(1e-5, 1e5, 12).reshape(3, 4),
    "empty": np.array([]),
}


@pytest.mark.parametrize("x", FRONT_ARGS.values(), ids=list(FRONT_ARGS))
@pytest.mark.parametrize("name", ["forward", "inverse", "log_inverse"])
@pytest.mark.parametrize("phi", ONE_OF_EACH_KIND, ids=lambda p: p.kind)
def test_front_keeps_shape_and_acts_elementwise(phi, name, x):
    fn = getattr(phi, name)
    got = fn(x)
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        assert type(got) is float
    else:
        assert type(got) is np.ndarray and got.dtype == float
        assert got.shape == arr.shape
    assert np.ravel(got).tolist() == [fn(float(v)) for v in arr.ravel()]
    rejects = name != "log_inverse"
    for bad in (-1.0, [2.0, -1e-300], np.array([[1.0], [math.nan]])):
        if rejects or np.isnan(bad).any():
            with pytest.raises(YoungFunctionError, match="argument of Phi"):
                fn(bad)
        else:
            assert np.all(np.isfinite(fn(bad)))


@pytest.mark.parametrize("kind, name", [
    (make_logpower(1.2, 1.5), "log_inverse"),
    (make_logpower(1.2, 1.5), "inverse"),
    (make_section7(0.05), "forward")], ids=["logpower-log_inverse",
                                            "logpower-inverse",
                                            "section7-forward"])
def test_newton_maps_round_each_entry_alone(kind, name):
    # newton_monotone freezes each entry at its own convergence, so a
    # Newton-based map gives every entry the bits a scalar call gives it,
    # whatever the rest of its batch (109 of these 2000 differed when the
    # whole batch kept stepping until its last entry had converged)
    y = np.random.default_rng(0).uniform(-300.0, 300.0, 2000)
    x = y if name == "log_inverse" else np.exp(y)
    fn = getattr(kind, name)
    assert fn(x).tolist() == [fn(v) for v in x.tolist()]


def test_front_hands_kernels_one_flat_array():
    seen = []

    def kernel(flat):
        seen.append(flat)
        return 2.0 * flat

    phi = dataclasses.replace(make_power(2.0), _forward=kernel,
                              _inverse=kernel, _log_inverse=kernel)
    x = np.linspace(0.0, 1.0, 6)
    for fn in (phi, phi.inverse, phi.log_inverse):
        assert fn(x).tolist() == (2.0 * x).tolist()
        assert seen[-1] is x
        assert fn(x.reshape(2, 3)).shape == (2, 3)
        assert seen[-1].shape == (6,)
        assert fn(0.5) == 1.0 and seen[-1].shape == (1,)


def test_is_square_only_for_p2_and_survives_replace():
    assert [phi.is_square for phi in all_kinds()].count(True) == 1
    assert make_power(2.0).is_square
    traced = dataclasses.replace(make_power(2.0), _forward=lambda t: t * t)
    assert traced.is_square
    assert not dataclasses.replace(make_power(3.0),
                                   _forward=lambda t: t ** 3).is_square


# ---------------------------------------------------------------------------
# sqrt-concavity checker
# ---------------------------------------------------------------------------

def test_sqrt_concavity_power2_zero_margin():
    rep = check_sqrt_concavity(make_power(2.0), np.geomspace(1e-6, 1e6, 200))
    assert rep.passed
    assert abs(rep.margin) <= 1e-12


def test_sqrt_concavity_power3_fails():
    rep = check_sqrt_concavity(make_power(3.0), np.geomspace(1e-6, 1e6, 200))
    assert not rep.passed
    assert rep.margin < 0


def _second_derivative_formula(alpha: float, x: np.ndarray) -> np.ndarray:
    """Closed-form second derivative of (Phi^{-1})^2 on the outer branches,
    used as an independent positivity oracle for the concavity check."""
    r = SECTION7_R
    out = np.empty_like(x)
    low = x < 1.0 / r
    high = x > r
    mid = ~(low | high)
    yl = np.log(1.0 / np.sqrt(x[low]))
    L = np.log(yl)
    out[low] = np.exp(2 * alpha * yl / L) * (
        2.0 + alpha * (-3.0 * (L - 1.0) / L ** 2
                       + (2.0 - L) / (2.0 * L ** 3 * yl)
                       + alpha * (L - 1.0) ** 2 / L ** 4))
    wh = np.log(np.sqrt(x[high]))
    M = np.log(wh)
    out[high] = np.exp(-2 * alpha * wh / M) * (
        2.0 + alpha * (-3.0 * (M - 1.0) / M ** 2
                       + (M - 2.0) / (2.0 * M ** 3 * wh)
                       + alpha * (M - 1.0) ** 2 / M ** 4))
    p = make_section7(alpha).params["p"]
    out[mid] = 2.0 * p ** 2
    return out


def test_second_derivative_formula_matches_finite_differences():
    phi = make_section7(0.05)
    for x0 in (1e-8, 1e-3, 10.0, 1e8):
        h = x0 * 1e-4
        f = lambda x: phi.inverse(np.asarray(x)) ** 2
        fd = (f(x0 + h) - 2.0 * f(x0) + f(x0 - h)) / h ** 2
        formula = _second_derivative_formula(0.05, np.array([x0]))[0]
        assert fd == pytest.approx(formula, rel=1e-4, abs=0.0)


def test_sqrt_concavity_section7_with_formula_oracle():
    grid = np.geomspace(1e-8, 1e8, 400)
    # oracle: the closed-form second derivative of (Phi^{-1})^2 is positive
    assert np.all(_second_derivative_formula(0.05, grid) > 0.0)
    rep = check_sqrt_concavity(make_section7(0.05), grid)
    assert rep.passed


# ---------------------------------------------------------------------------
# supermultiplicativity and inverse product
# ---------------------------------------------------------------------------

def test_supermultiplicativity_power_equality():
    pairs = supermultiplicativity_pairs(seed=1, n=100)
    rep = check_supermultiplicativity(make_power(2.0), 1.0, pairs)
    assert rep.passed
    assert abs(rep.min_relative_margin) <= 1e-12


def test_supermultiplicativity_section7_with_paper_constant():
    pairs = supermultiplicativity_pairs(seed=2, n=200)
    rep = check_supermultiplicativity(make_section7(0.05), SECTION7_R, pairs)
    assert rep.passed


def test_supermultiplicativity_logpower_recorded():
    # no theorem either way: just evaluate both sides and record the outcome
    phi = make_logpower(1.0, 1.0)
    rep = check_supermultiplicativity(phi, 1.0, [(0.1, 100.0)])
    direct = float(phi(1.0 * 0.1 * 100.0)) - float(phi(0.1)) * float(phi(100.0))
    assert rep.margin == pytest.approx(direct, rel=1e-12, abs=0.0)
    assert rep.passed == (direct >= -1e-9 * max(abs(float(phi(10.0))), 1.0))


def test_supermultiplicativity_rejects_bad_pairs():
    with pytest.raises(YoungFunctionError):
        check_supermultiplicativity(make_power(2.0), 1.0, [(0.5, 1.0)])


def test_inverse_product_power_exact():
    rep = check_inverse_product(make_power(2.5), 1.0,
                                np.geomspace(1e-6, 1e6, 100))
    assert rep.passed
    assert abs(rep.margin) <= 1e-12


def test_inverse_product_section7_equality_beyond_r_squared():
    rep = check_inverse_product(make_section7(0.05), 1.0,
                                np.geomspace(SECTION7_R ** 2, 1e18, 50))
    assert rep.passed
    assert abs(rep.margin) <= 1e-12


def test_inverse_product_logpower_reported():
    rep = check_inverse_product(make_logpower(1.2, 1.5), 4.0,
                                np.geomspace(1e-6, 1e6, 100))
    assert rep.inputs["grid_size"] == 100
    assert rep.witness > 0


# ---------------------------------------------------------------------------
# property-based invariants
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=1.01, max_value=8.0),
       st.floats(min_value=1e-4, max_value=1e4))
def test_power_inverse_identity_property(p, u):
    phi = make_power(p)
    assert float(phi(phi.inverse(u))) == pytest.approx(u, rel=1e-11, abs=0.0)


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.005, max_value=0.13),
       st.floats(min_value=1e-6, max_value=1e6))
def test_section7_inverse_identity_property(alpha, u):
    phi = make_section7(alpha)
    assert float(phi(phi.inverse(u))) == pytest.approx(u, rel=1e-10, abs=0.0)


# ---------------------------------------------------------------------------
# input guards
# ---------------------------------------------------------------------------

_PAIRS = [(2.0, 3.0)]
NAN, INF = math.nan, math.inf

GUARDS = [
    (lambda: make_power(INF), "power kind requires a finite p > 1"),
    (lambda: make_logpower(NAN, 1.0),
     "logpower kind requires a finite p0 >= 1"),
    (lambda: make_logpower(1.2, NAN),
     "logpower kind requires a finite gamma > 0"),
    (lambda: make_logpower(1.0, 1.0, switch=1.0),
     "logpower switch must lie in (0, 1)"),
    (lambda: make_tabulated([]),
     "tabulated kind needs at least one breakpoint"),
    (lambda: make_tabulated([(1.0, 1.0), (1.0, 2.0)]),
     "tabulated breakpoints must be strictly increasing"),
    (lambda: make_tabulated([(1.0, NAN)]),
     "tabulated breakpoint (1.0, nan) is not finite"),
    (lambda: make_tabulated([(NAN, 1.0), (2.0, 3.0)]),
     "tabulated breakpoint (nan, 1.0) is not finite"),
    (lambda: make_tabulated([(1.0, 1.0), (2.0, INF)]),
     "tabulated breakpoint (2.0, inf) is not finite"),
    (lambda: check_supermultiplicativity(make_power(2.0), 0.5, _PAIRS),
     "supermultiplicativity constant C must be >= 1"),
    (lambda: check_supermultiplicativity(make_power(2.0), NAN, _PAIRS),
     "supermultiplicativity constant C must be >= 1"),
    (lambda: check_inverse_product(make_power(2.0), 0.5, [1.0]),
     "inverse-product constant C must be >= 1"),
    (lambda: check_inverse_product(make_power(2.0), NAN, [1.0]),
     "inverse-product constant C must be >= 1"),
    (lambda: check_inverse_product(make_power(2.0), 1.0, [0.0, 1.0]),
     "inverse-product grid must be positive"),
    (lambda: check_supermultiplicativity(make_power(2.0), INF, _PAIRS),
     "supermultiplicativity constant C must be >= 1"),
    (lambda: check_inverse_product(make_power(2.0), INF, [1.0]),
     "inverse-product constant C must be >= 1"),
    (lambda: check_inverse_product(make_power(2.0), 2.0, [INF]),
     "inverse-product grid must be positive"),
    (lambda: check_inverse_product(make_power(2.0), 2.0, [1.0, NAN]),
     "inverse-product grid must be positive"),
    (lambda: check_inverse_product(make_power(2.0), 2.0, []),
     "inverse-product grid must be nonempty"),
    (lambda: check_supermultiplicativity(make_power(2.0), 2.0, []),
     "supermultiplicativity pairs must be nonempty"),
    (lambda: check_sqrt_concavity(make_power(2.0), [1.0]),
     "sqrt-concavity grid needs at least 2 points, got 1"),
    (lambda: check_sqrt_concavity(make_power(2.0), []),
     "sqrt-concavity grid needs at least 2 points, got 0"),
]


def _ids(guards):
    """Each guard's message, a repeated one numbered from its second use."""
    seen = collections.Counter()
    for _, message in guards:
        seen[message] += 1
        yield message + (f" #{seen[message]}" if seen[message] > 1 else "")


@pytest.mark.parametrize("call, message", GUARDS, ids=list(_ids(GUARDS)))
def test_input_guards_raise(call, message):
    with pytest.raises(YoungFunctionError, match=f"^{re.escape(message)}$"):
        call()
