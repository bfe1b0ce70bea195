"""Construction, inversion, and structural checks of Young functions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orlicheck.young import (SECTION7_R, YoungFunctionError,
                             check_inverse_product, check_sqrt_concavity,
                             check_supermultiplicativity,
                             check_multiplicativity_transfer, make_logpower,
                             make_power, make_section7, make_tabulated,
                             supermultiplicativity_pairs, transfer_pairs,
                             validate, young_from_config, young_to_config)

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
    assert phi(math.exp(-1.0)) == pytest.approx(math.exp(-1.0), rel=1e-14)
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


def test_logpower_rejects_bad_params():
    with pytest.raises(YoungFunctionError):
        make_logpower(0.9, 1.0)
    with pytest.raises(YoungFunctionError):
        make_logpower(1.0, 0.0)


def test_logpower_extension_is_convex_and_continuous():
    phi = make_logpower(1.0, 1.0)
    eps = 1e-9
    assert phi(0.5 - eps) == pytest.approx(phi(0.5 + eps), rel=1e-6)
    v = validate(phi)
    assert v.passed


# ---------------------------------------------------------------------------
# section7
# ---------------------------------------------------------------------------

def test_section7_r_constant():
    assert SECTION7_R == pytest.approx(math.exp(2.0 * E2), rel=1e-15)
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
        1.0, rel=1e-12)


def test_section7_continuity_at_knots():
    phi = make_section7(0.05)
    r = SECTION7_R
    for knot in (1.0 / r, r):
        left = float(phi.inverse(knot * (1.0 - 1e-13)))
        right = float(phi.inverse(knot * (1.0 + 1e-13)))
        assert left == pytest.approx(right, rel=1e-12)


@pytest.mark.parametrize("alpha", [0.0, math.exp(-2.0), 0.2, -0.1])
def test_section7_rejects_alpha_out_of_range(alpha):
    with pytest.raises(YoungFunctionError):
        make_section7(alpha)


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


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_small_argument_ratio_power(p):
    phi = make_power(p)
    assert phi(1e-8) / 1e-8 < 1e-4


def test_zero_maps_to_zero():
    for phi in all_kinds():
        assert phi(0.0) == 0.0
        assert phi.inverse(0.0) == 0.0


@pytest.mark.parametrize("phi", [make_power(1.5), make_logpower(1.0, 1.0),
                                 make_section7(0.05),
                                 make_tabulated([(1.0, 1.0), (2.0, 4.0)])],
                         ids=lambda p: p.kind)
def test_nan_argument_is_rejected(phi):
    for fn in (phi, phi.inverse):
        with pytest.raises(YoungFunctionError, match="NaN"):
            fn(np.array([1.0, math.nan]))


def test_config_roundtrip():
    for phi in all_kinds():
        clone = young_from_config(young_to_config(phi))
        ts = np.geomspace(1e-4, 1e4, 64)
        assert np.allclose(clone(ts), phi(ts), rtol=1e-13)


def test_config_rejects_unknown_kind():
    with pytest.raises(YoungFunctionError):
        young_from_config({"kind": "exponential", "params": {}})


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
        assert fd == pytest.approx(formula, rel=1e-4)


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
    assert abs(rep.details["min_relative_margin"]) <= 1e-12


def test_supermultiplicativity_section7_with_paper_constant():
    pairs = supermultiplicativity_pairs(seed=2, n=200)
    rep = check_supermultiplicativity(make_section7(0.05), SECTION7_R, pairs)
    assert rep.passed


def test_supermultiplicativity_logpower_recorded():
    # no theorem either way: just evaluate both sides and record the outcome
    phi = make_logpower(1.0, 1.0)
    rep = check_supermultiplicativity(phi, 1.0, [(0.1, 100.0)])
    direct = float(phi(1.0 * 0.1 * 100.0)) - float(phi(0.1)) * float(phi(100.0))
    assert rep.margin == pytest.approx(direct, rel=1e-12)
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
    assert rep.grid_size == 100
    assert rep.witness > 0


# ---------------------------------------------------------------------------
# multiplicativity transfer
# ---------------------------------------------------------------------------

def test_transfer_power_equalities():
    phi = make_power(2.0)
    pairs = transfer_pairs(phi, seed=3, n=50)
    rep = check_multiplicativity_transfer(phi, 1.0, pairs)
    assert rep.passed
    assert rep.quantities["n_violations"] == 0


def test_transfer_section7_no_violations():
    phi = make_section7(0.05)
    pairs = transfer_pairs(phi, seed=4, n=100)
    rep = check_multiplicativity_transfer(phi, SECTION7_R, pairs)
    assert rep.passed
    assert rep.quantities["n_violations"] == 0


def test_transfer_rejects_pair_violating_precondition():
    phi = make_power(2.0)
    # product of inverses far below 1
    with pytest.raises(YoungFunctionError):
        check_multiplicativity_transfer(phi, 1.0, [(1e-8, 1.5)])


# ---------------------------------------------------------------------------
# property-based invariants
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=1.01, max_value=8.0),
       st.floats(min_value=1e-4, max_value=1e4))
def test_power_inverse_identity_property(p, u):
    phi = make_power(p)
    assert float(phi(phi.inverse(u))) == pytest.approx(u, rel=1e-11)


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.005, max_value=0.13),
       st.floats(min_value=1e-6, max_value=1e6))
def test_section7_inverse_identity_property(alpha, u):
    phi = make_section7(alpha)
    assert float(phi(phi.inverse(u))) == pytest.approx(u, rel=1e-10)
