"""Summing-norm extrapolation: endpoint integrals against closed forms and
30-digit mpmath quadrature, the chain's gamma factor, and bucketing."""

import math
import re
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from orlicheck.extrapolation import (BoundProfile, HypothesisError,
                                     admissible_gamma, bucket,
                                     sobolev_profile,
                                     summing_criterion,
                                     verify_extrapolation_chain,
                                     weighted_integral)

TRIPLES = [(2, 1, 1.0), (3, 1, 1.5), (3, 2, 1.2), (4, 1, 1.0)]


def _summing_oracle(d, k, p, alpha):
    """int exp(-(q + e^{-x})(1 - 2/p) x - (alpha+1) x) over [-ln eps, oo),
    the profile integral in the offset variable x = -ln(v - q)."""
    with mpmath.workdps(30):
        q, _ = admissible_gamma(d, k, p)
        q = mpmath.mpf(q)
        expo = 1 - mpmath.mpf(2) / p
        a1 = mpmath.mpf(alpha) + 1
        x0 = -mpmath.log(2 - q)
        value = mpmath.quad(
            lambda x: mpmath.exp(-(q + mpmath.exp(-x)) * expo * x - a1 * x),
            [x0, x0 + 1, x0 + 10, x0 + 100, x0 + 1000, mpmath.inf])
        return float(value)


@pytest.mark.parametrize("d,k,p", TRIPLES)
@pytest.mark.parametrize("delta", [-0.2, -0.05, 0.05, 0.2])
def test_summing_criterion_classifies_and_matches_oracle(d, k, p, delta):
    _, gamma_min = admissible_gamma(d, k, p)
    alpha = gamma_min - 1.0 + delta
    res = summing_criterion(sobolev_profile(d, k, p), alpha)
    if delta < 0:
        assert res.status == "divergent"
        assert res.value is None
    else:
        assert res.status == "converged"
        assert res.value == pytest.approx(_summing_oracle(d, k, p, alpha),
                                          rel=1e-12, abs=0.0)
    assert res.target.params["gamma"] == pytest.approx(alpha + 1.0)


@pytest.mark.parametrize("d,k,p", TRIPLES)
def test_summing_borderline_is_never_convergent(d, k, p):
    _, gamma_min = admissible_gamma(d, k, p)
    res = summing_criterion(sobolev_profile(d, k, p), gamma_min - 1.0)
    assert res.status != "converged"
    assert res.value is None


@pytest.mark.parametrize("d,k,p", TRIPLES)
def test_summing_slow_decay_spends_budget_as_indeterminate(d, k, p):
    # decades shrink by 10^-0.001: not divergent, but 2600 decades are
    # far from the stopping rule
    _, gamma_min = admissible_gamma(d, k, p)
    res = summing_criterion(sobolev_profile(d, k, p), gamma_min - 1.0 + 0.001)
    assert res.status == "truncated"
    assert res.value is None


def test_summing_deep_march_value():
    # about 640 decades, x near 1470, where e^{-x} is 0 in double precision
    res = summing_criterion(sobolev_profile(2, 1, 1.0), 0.01)
    assert res.status == "converged"
    assert res.value == pytest.approx(101.1166534708, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("d,k,p,alpha", [
    (3, 1, 1.5, -0.5), (3, 2, 1.2, -0.2), (3, 2, 1.2, 0.0), (4, 1, 1.0, 0.133),
    (2, 1, 1.0, 0.0), (2, 1, 1.0, 2.5), (3, 1, 1.5, 0.3), (4, 1, 1.0, -0.9)])
def test_weighted_integral_closed_form(d, k, p, alpha):
    profile = sobolev_profile(d, k, p)
    e = 2.0 - 2.0 / p + alpha
    res = weighted_integral(profile, alpha)
    if e > 0:
        assert res.status == "converged"
        assert res.value == pytest.approx(profile.eps ** e / e, rel=1e-12,
                                          abs=0.0)
    else:
        assert res.status == "divergent"
        assert res.value == math.inf


@pytest.mark.parametrize("fn", [weighted_integral, summing_criterion])
@pytest.mark.parametrize("alpha", [-1.0, -1.5])
def test_alpha_at_or_below_minus_one_raises(fn, alpha):
    with pytest.raises(ValueError, match="alpha"):
        fn(sobolev_profile(2, 1, 1.0), alpha)


def _chain(profile, alpha):
    return verify_extrapolation_chain([0.3, 0.1], profile, alpha)


@pytest.mark.parametrize("fn", [weighted_integral, summing_criterion, _chain],
                         ids=["weighted_integral", "summing_criterion",
                              "verify_extrapolation_chain"])
@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_alpha_that_is_not_finite_raises(fn, alpha):
    message = f"weight exponent alpha must be finite and > -1, not {alpha}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        fn(sobolev_profile(2, 1, 1.0), alpha)


@pytest.mark.parametrize("a", [0.02, 0.3, 1.0, 2.5, 5.0])
@pytest.mark.parametrize("z", [1e-3, 0.2, 1.0, 3.0])
def test_chain_gamma_factor_matches_mpmath(a, z):
    profile = BoundProfile(1.0, z / math.log(2.0),
                           lambda x: math.log(1e6) + 0.0 * x)
    rep = verify_extrapolation_chain([0.3, 0.1], profile, a - 1.0)
    with mpmath.workdps(30):
        ref = float(mpmath.gammainc(a, 0, z))
    assert rep.quantities["gamma_factor"] == pytest.approx(ref, rel=1e-13,
                                                           abs=0.0)


def test_chain_passes_on_a_valid_bound():
    x = np.array([0.3, 0.2, 0.1, 0.05, 0.01])
    # f(p) = 5 (0.3)^p at p = 1 + e^{-x}
    profile = BoundProfile(
        1.0, 1.0, lambda x: math.log(5.0) + (1.0 + np.exp(-x)) * math.log(0.3))
    rep = verify_extrapolation_chain(x, profile, 0.0)
    assert rep.passed and rep.margin > 0
    assert rep.quantities["integral_status"] == "converged"
    # int_1^2 5 (0.3)^p dp
    expect = 5 * (0.3 - 0.09) / math.log(1 / 0.3)
    assert rep.quantities["weighted_integral"] == pytest.approx(
        expect, rel=1e-12, abs=0.0)


def test_chain_rejects_a_violated_bound_with_witness():
    with pytest.raises(HypothesisError) as err:
        verify_extrapolation_chain(
            [0.9, 0.9],
            BoundProfile(1.0, 0.5, lambda x: math.log(0.5) + 0.0 * x), 0.0)
    assert err.value.witness == pytest.approx(1.0, abs=1e-5)


def test_chain_rejects_a_nan_bound():
    # lhs > nan is False, so a NaN bound would slip past the hypothesis test
    with pytest.raises(ValueError, match=r"NaN at p = 1\.5"):
        verify_extrapolation_chain(
            [0.3], BoundProfile(
                1.0, 1.0, lambda x: np.where(np.exp(-x) > 0.49, np.nan, 0.0)),
            0.0)


def test_chain_gamma_factor_out_of_budget_raises():
    with pytest.raises(ValueError, match="gamma"):
        verify_extrapolation_chain(
            [0.3], BoundProfile(1.0, 1.0, lambda x: math.log(1e6) + 0.0 * x),
            -0.999)


def test_chain_integrates_a_bound_that_blows_up_at_q():
    # f(p) = (p - 1)^{-1/2}: ln f = x/2, and int_1^2 f(p) dp = 2.  In the
    # absolute variable f(q + e^{-x}) would round to f(1) = inf past about
    # 16 decades and read as divergent.
    rep = verify_extrapolation_chain(
        [0.3, 0.2], BoundProfile(1.0, 1.0, lambda x: 0.5 * x), 0.0)
    assert rep.quantities["integral_status"] == "converged"
    assert rep.quantities["weighted_integral"] == pytest.approx(2.0, rel=1e-12,
                                                                abs=0.0)
    assert rep.passed and 0.0 < rep.margin < 2.0


def test_bucket_counts_reciprocal_intervals():
    dec = bucket([0.4, 0.3, 0.2, 0.25, 0.1, 0.0, 0.101, 1 / 3])
    # max 0.4 is below 1/2, so no scaling; 1/3 and 0.25 are left edges
    assert dec.scale == 1.0
    assert dec.counts == {3: 2, 4: 2, 5: 1, 10: 2}
    assert all(type(n) is int and type(c) is int
               for n, c in dec.counts.items())
    assert dec.entries.size == 7


@pytest.mark.parametrize("x", [[], [0.0, 0.0]])
def test_bucket_of_no_positive_entry_is_empty(x):
    dec = bucket(x)
    assert dec.counts == {} and dec.scale == 1.0
    assert dec.entries.shape == (0,)


def test_import_leaves_scipy_out():
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); import orlicheck; "
         "print('scipy' in sys.modules)", src],
        capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# input guards
# ---------------------------------------------------------------------------

GUARDS = [
    (lambda: bucket([0.1, -1.0]), "bucket entries must be >= 0"),
    (lambda: bucket([math.nan, 0.3]), "sequence entry 0 is nan, not finite"),
    (lambda: bucket([math.inf, 0.1]), "sequence entry 0 is inf, not finite"),
    (lambda: verify_extrapolation_chain([0.2, math.nan],
                                        sobolev_profile(2, 1, 1.0), 1.5),
     "sequence entry 1 is nan, not finite"),
    (lambda: verify_extrapolation_chain([0.3, 0.1, -math.inf],
                                        sobolev_profile(2, 1, 1.0), 1.5),
     "sequence entry 2 is inf, not finite"),
    (lambda: sobolev_profile(1, 1, 1.0),
     "dimension d must be an integer >= 2"),
    (lambda: sobolev_profile(3, 3, 1.0),
     "smoothness k must be an integer in [1, d-1]"),
    (lambda: sobolev_profile(3, 1, 2.0), "integrability p must lie in [1, 2)"),
    (lambda: sobolev_profile(3, 2, 1.6), "requires p < d/k"),
]


@pytest.mark.parametrize("call, message", GUARDS,
                         ids=[m for _, m in GUARDS])
def test_input_guards_raise(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
