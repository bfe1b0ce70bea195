"""Luxemburg norms: closed forms, oracles, and norm axioms."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orlicheck.luxemburg import (embed_l2_check, modular_fun, modular_profile,
                                 modular_seq, norm_fun, norm_seq, poly_norm)
from orlicheck.trig import TrigPoly
from orlicheck.young import (YoungFunctionError, make_logpower, make_power,
                             make_section7)


def test_power2_is_euclidean():
    phi = make_power(2.0)
    assert norm_seq(phi, [3.0, 4.0]) == pytest.approx(5.0, rel=1e-12)


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


def test_modular_profile_monotone_in_lambda():
    phi = make_section7(0.05)
    x = np.array([0.3, 1.2, 0.7])
    profile = modular_profile(phi, x, np.geomspace(0.1, 10.0, 25))
    mods = [mv.modular for mv in profile]
    assert all(m2 <= m1 + 1e-12 for m1, m2 in zip(mods, mods[1:]))


# ---------------------------------------------------------------------------
# function norms on sampled grids
# ---------------------------------------------------------------------------

def test_constant_function_norm():
    # modular is Phi(c / lambda), so the norm is c / Phi^{-1}(1)
    c = 2.5
    for phi in (make_power(2.0), make_section7(0.05), make_logpower(1.0, 1.0)):
        samples = np.full(64, c)
        expect = c / float(phi.inverse(1.0))
        assert norm_fun(phi, samples) == pytest.approx(expect, rel=1e-11)


def test_indicator_of_half_torus():
    phi = make_power(2.0)
    samples = np.zeros(256)
    samples[:128] = 1.0
    assert norm_fun(phi, samples) == pytest.approx(math.sqrt(0.5), rel=1e-12)


def test_cosine_power4_closed_form():
    # mean of cos^4 over the circle is 3/8, so the Luxemburg norm is (3/8)^{1/4}
    phi = make_power(4.0)
    f = TrigPoly(1, {(1,): 0.5, (-1,): 0.5})
    value = poly_norm(phi, f, exact_l2=False)
    assert value == pytest.approx((3.0 / 8.0) ** 0.25, rel=1e-9)


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
    assert fast == pytest.approx(slow, rel=1e-9)


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
        assert norm_seq(phi, x) == pytest.approx(expect, rel=1e-11)
        s = rng.standard_normal(128)
        expect_fun = float(np.mean(np.abs(s) ** p) ** (1.0 / p))
        assert norm_fun(phi, s) == pytest.approx(expect_fun, rel=1e-11)


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
    assert rep.quantities["lux"] == pytest.approx(1.0, rel=1e-12)


def test_embed_l2_section7_random_batch():
    phi = make_section7(0.05)
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = rng.standard_normal(rng.integers(1, 40))
        rep = embed_l2_check(phi, x)
        assert rep.passed
        assert rep.margin >= -1e-10 * max(rep.quantities["lux"], 1.0)


def test_complex_sequences_use_modulus():
    phi = make_power(2.0)
    z = np.array([3.0 + 4.0j, 0.0])
    assert norm_seq(phi, z) == pytest.approx(5.0, rel=1e-12)
