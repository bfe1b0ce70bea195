"""Integral embedding conditions: closed forms, classification, consistency."""

import collections
import math
import re
from unittest import mock

import mpmath
import numpy as np
import pytest

from orlicheck import conditions
from orlicheck.conditions import (ConditionEvaluation, constant_weight,
                                  embedding_condition_eval,
                                  embedding_condition_sup, embedding_weight,
                                  factorization_integral_condition,
                                  lorentz_embedding_probe, power_weight,
                                  weight_domination_check)
from orlicheck.young import make_power, make_section7, make_tabulated

S_GRID = np.geomspace(1.0, 1e6, 25)


def test_first_term_closed_form_at_e():
    # d=2, Phi(t)=t^2, Psi=1, s=e: prefactor e/Phi^{-1}(e^2)=1, integral ln e=1
    ev = embedding_condition_eval(make_power(2.0), constant_weight(), 2,
                                  math.e)
    assert ev.first_term == pytest.approx(1.0, rel=1e-10, abs=0.0)
    assert ev.total == ev.first_term + ev.second_term


def test_first_term_grows_like_log():
    phi = make_power(2.0)
    psi = constant_weight()
    for s in (1e2, 1e4, 1e6):
        ev = embedding_condition_eval(phi, psi, 2, s)
        assert 0.98 <= ev.first_term / math.log(s) <= 1.02


def test_power2_constant_weight_classified_divergent():
    scan = embedding_condition_sup(make_power(2.0), constant_weight(), 2,
                                   S_GRID)
    assert not scan.bounded and not scan.passed
    assert scan.margin == pytest.approx(0.01 - abs(scan.relative_slope))
    # the growth is exactly logarithmic: absolute slope 1 against ln s
    assert scan.slope == pytest.approx(1.0, abs=0.02)


def test_section7_embedding_weight_classified_bounded():
    phi = make_section7(0.05)
    scan = embedding_condition_sup(phi, embedding_weight(phi), 2, S_GRID)
    assert scan.bounded
    assert abs(scan.relative_slope) < 0.01
    assert math.isfinite(scan.sup_value)
    assert not any(e.divergent for e in scan.evaluations)
    assert not any(e.truncated for e in scan.evaluations)


@pytest.mark.parametrize("alpha, status", [(0.01, "truncated"),
                                           (0.05, "converged"),
                                           (0.13, "converged")])
def test_section7_sweep_carries_its_worst_status(alpha, status):
    # at alpha = 0.01 every second integral spends its decade budget: the
    # sweep still classifies bounded, and says its sup may be short
    phi = make_section7(alpha)
    scan = embedding_condition_sup(phi, embedding_weight(phi), 2, S_GRID)
    assert scan.status == status
    assert scan.passed and scan.bounded
    assert scan.margin == 0.01 - abs(scan.relative_slope) > 0.0
    assert scan.witness == scan.witness_s == 1e6
    assert all(e.status == status for e in scan.evaluations)


def test_single_point_grid_equals_eval():
    phi = make_power(2.0)
    psi = constant_weight()
    scan = embedding_condition_sup(phi, psi, 2, [1.0])
    ev = embedding_condition_eval(phi, psi, 2, 1.0)
    assert scan.sup_value == pytest.approx(ev.total, rel=1e-12, abs=0.0)
    assert scan.witness_s == 1.0


def test_two_routes_agree():
    phi = make_section7(0.05)
    grid = np.geomspace(1.0, 1e4, 10)
    fact = factorization_integral_condition(phi, grid)
    emb = embedding_condition_sup(phi, embedding_weight(phi), 2, grid)
    for a, b in zip(fact.evaluations, emb.evaluations):
        assert a.total == pytest.approx(b.total, abs=1e-9, rel=1e-9)
    assert fact.sup_value == pytest.approx(emb.sup_value, rel=1e-9, abs=0.0)


def test_two_routes_agree_power_kind():
    phi = make_power(1.7)
    grid = np.geomspace(1.0, 100.0, 8)
    fact = factorization_integral_condition(phi, grid)
    emb = embedding_condition_sup(phi, embedding_weight(phi), 2, grid)
    for a, b in zip(fact.evaluations, emb.evaluations):
        assert a.total == pytest.approx(b.total, abs=1e-9, rel=1e-9)


def test_factorization_condition_power2_divergent_section7_bounded():
    assert not factorization_integral_condition(make_power(2.0),
                                                S_GRID).bounded
    assert factorization_integral_condition(make_section7(0.05),
                                            np.geomspace(1.0, 1e5, 15)).bounded


# ---------------------------------------------------------------------------
# oracles for the factorization condition
# ---------------------------------------------------------------------------

# The factorization condition is the embedding sweep under embedding_weight
# at d = 2 by construction, so the two routes above cannot check each other;
# a closed form and a 30-digit quadrature can.

@pytest.mark.parametrize("s", [1.0, 10.0, 1e3, 1e6])
@pytest.mark.parametrize("p", [1.5, 1.7])
def test_power_factorization_total_matches_closed_form(p, s):
    # Phi = t^p: Phi^{-1}(t^2)/t = t^{2/p - 1}, so the first term is
    # (1 - s^{1-2/p})/(2/p - 1) and the second p/(p - 1) at every s
    want = (1.0 - s ** (1.0 - 2.0 / p)) / (2.0 / p - 1.0) + p / (p - 1.0)
    rep = factorization_integral_condition(make_power(p), [s])
    assert rep.evaluations[0].total == pytest.approx(want, rel=1e-8, abs=0.0)


def _mp_section7_inverse(alpha):
    """Phi^{-1} of section7 from its three-branch closed form, the affine
    middle branch fitted for continuity, in mpmath arithmetic."""
    alpha = mpmath.mpf(alpha)
    r = mpmath.exp(2 * mpmath.e ** 2)
    h = alpha * mpmath.e ** 2 / 2
    p = (r * mpmath.exp(-h) - mpmath.exp(h) / r) / (r - 1 / r)
    q = mpmath.exp(h) / r - p / r

    def inverse(u):
        if u < 1 / r:
            w = -mpmath.log(u) / 2
            return u * mpmath.exp(alpha * w / mpmath.log(w))
        if u < r:
            return p * u + q
        v = mpmath.log(u) / 2
        return u * mpmath.exp(-alpha * v / mpmath.log(v))

    return inverse


@pytest.mark.parametrize("alpha", [0.05, 0.13])
def test_section7_factorization_totals_match_mpmath(alpha):
    # The integrals in their own spelling, the second in x = ln t, split at
    # the branch changes t^2 = r and t s = r (t = e^{e^2}, x = e^2 and
    # x = 2 e^2 - ln s).
    # Its integrand falls like exp(-(alpha/2) x / ln x), below 1e-90 of the
    # total past x = ln s + 1e5.  The march stops on a geometric tail
    # estimate that is not a certified bound (ROADMAP item 5), and its
    # totals sit 5.7e-7 to 1.0e-6 below these values, hence rel 2e-6.
    inv = _mp_section7_inverse(alpha)

    def second_integrand(x, s):
        t = mpmath.exp(x)
        return inv(t ** 2) * s / (t ** 2 * inv(t * s)) * t

    rep = factorization_integral_condition(make_section7(alpha),
                                           [1.0, 10.0, 1e3])
    with mpmath.workdps(30):
        e2 = mpmath.e ** 2
        for ev in rep.evaluations:
            s = mpmath.mpf(ev.s)
            sigma = mpmath.log(s)
            first = s / inv(s ** 2) * mpmath.quad(
                lambda t: inv(t ** 2) / t ** 2,
                sorted({1, s, min(mpmath.exp(e2), s)}))
            second = mpmath.quad(
                lambda x: second_integrand(x, s),
                sorted({sigma, max(e2, sigma), max(2 * e2 - sigma, sigma),
                        *(sigma + 10 ** k for k in range(-1, 6))}))
            assert ev.status == "converged"
            assert ev.total == pytest.approx(float(first + second), rel=2e-6,
                                             abs=0.0)


# ---------------------------------------------------------------------------
# analytic convergence table for the second integral
# ---------------------------------------------------------------------------

# d = 2, Phi(t) = t^p, Psi(t) = t^theta: the tail integrand scales like
# t^{theta - 1 - 1/p}, converging iff theta < 1/p.
CASES = [
    (1.2, 0.70, True), (1.2, 0.95, False),
    (1.5, 0.50, True), (1.5, 0.80, False),
    (2.0, 0.40, True), (2.0, 0.62, False),
    (2.5, 0.30, True), (2.5, 0.52, False),
    (3.0, 0.20, True), (3.0, 0.45, False),
]


@pytest.mark.parametrize("p,theta,convergent", CASES)
def test_second_integral_convergence_table(p, theta, convergent):
    ev = embedding_condition_eval(make_power(p), power_weight(theta), 2, 10.0)
    assert ev.divergent == (not convergent)
    if convergent:
        assert math.isfinite(ev.second_term)
        assert ev.tail_bound <= 1e-6 * ev.total or ev.truncated is False


def test_boundary_case_flagged_divergent():
    # theta = 1/p gives an exactly logarithmic tail
    ev = embedding_condition_eval(make_power(2.0), power_weight(0.5), 2, 10.0)
    assert ev.divergent


# ---------------------------------------------------------------------------
# refinement stability
# ---------------------------------------------------------------------------

def test_doubling_nodes_changes_totals_below_1e6():
    phi = make_section7(0.05)
    psi = embedding_weight(phi)
    for s in (1.0, 1e3):
        a = embedding_condition_eval(phi, psi, 2, s, nodes=64)
        b = embedding_condition_eval(phi, psi, 2, s, nodes=128)
        assert a.total == pytest.approx(b.total, rel=1e-6, abs=0.0)
    p2, w = make_power(1.5), power_weight(0.4)
    a = embedding_condition_eval(p2, w, 2, 100.0, nodes=64)
    b = embedding_condition_eval(p2, w, 2, 100.0, nodes=128)
    assert a.total == pytest.approx(b.total, rel=1e-6, abs=0.0)


def test_tabulated_terms_match_fine_nodes():
    # the kinks of the tabulated log inverse split the Gauss panels, so the
    # default 64 nodes agree with 2048 far below the 1e-5 that a panel
    # straddling a kink costs
    phi = make_tabulated([(0.5, 0.2), (1, 0.7), (2, 2.5), (4, 9)])
    for psi in (constant_weight(), embedding_weight(phi)):
        for s in (1.2, 1.5, 2.0, 3.0, 10.0, 30.0, 300.0):
            a = embedding_condition_eval(phi, psi, 2, s)
            b = embedding_condition_eval(phi, psi, 2, s, nodes=2048)
            assert a.first_term == pytest.approx(b.first_term, rel=1e-8,
                                                 abs=0.0)
            assert a.second_term == pytest.approx(b.second_term, rel=1e-8,
                                                  abs=0.0)


# ---------------------------------------------------------------------------
# pointwise weight condition
# ---------------------------------------------------------------------------

def test_weight_domination_equality_case():
    phi = make_section7(0.05)
    rep = weight_domination_check(phi, embedding_weight(phi),
                                  np.geomspace(1e-3, 1e6, 200))
    assert rep.passed
    assert abs(rep.margin) <= 1e-12


def test_weight_domination_doubled_weight_positive_margin():
    phi = make_section7(0.05)
    base = embedding_weight(phi)
    from orlicheck.conditions import Weight
    doubled = Weight("2x", lambda x: math.log(2.0) + base.log_value(x),
                     base.log_breaks)
    rep = weight_domination_check(phi, doubled, np.geomspace(0.1, 1e4, 100))
    assert rep.passed
    assert rep.margin == pytest.approx(1.0, rel=1e-9, abs=0.0)  # ratio 2 - 1


def test_weight_domination_zero_weight_fails():
    phi = make_power(2.0)
    from orlicheck.conditions import Weight
    zero = Weight("0", lambda x: np.full_like(np.asarray(x, dtype=float),
                                              -np.inf))
    rep = weight_domination_check(phi, zero, np.geomspace(0.1, 10.0, 20))
    assert not rep.passed
    assert rep.margin == -1.0


@pytest.mark.parametrize("theta", [0.25, 0.5, 2.0])
def test_weight_domination_power_weight_matches_closed_form(theta):
    # under Phi = t^2, t Psi(t)/Phi^{-1}(t^2) - 1 = t^theta - 1, least at
    # the grid's first node, and the raw margin is that over t
    t = np.geomspace(0.1, 1e4, 50)
    rep = weight_domination_check(make_power(2.0), power_weight(theta), t)
    want = float(mpmath.expm1(theta * mpmath.log(t[0])))
    assert rep.witness == t[0]
    assert rep.margin == pytest.approx(want, rel=1e-14, abs=0.0)
    assert rep.min_raw_margin == pytest.approx(want / t[0], rel=1e-14, abs=0.0)


def test_weight_domination_holds_far_beyond_float_range():
    # t^2 and Phi^{-1}(t^2) leave float range on this grid; the log form
    # never forms them, so the equality case still reads 0
    phi = make_section7(0.05)
    rep = weight_domination_check(phi, embedding_weight(phi),
                                  np.geomspace(1e-300, 1e300, 61))
    assert rep.passed
    assert abs(rep.margin) <= 1e-12


def test_lorentz_probe_informative():
    rep = lorentz_embedding_probe(make_power(2.0), 2,
                                  np.geomspace(0.01, 1.0, 50))
    assert rep.informative_only
    assert rep.passed  # t^2 <= t^2 + 1 on (0, 1]


def test_eval_rejects_bad_inputs():
    phi = make_power(2.0)
    with pytest.raises(ValueError):
        embedding_condition_eval(phi, constant_weight(), 2, 0.5)
    with pytest.raises(ValueError):
        embedding_condition_sup(phi, constant_weight(), 2, [])


# Totals of the section7 embedding expression, pinned to the last bit: the
# decade march's block schedule and its bulk step over quiet decades are
# reorganisations of the same arithmetic and must not move them.
PINNED_TOTALS = {
    (0.01, 1.0): 1651.5020324109441, (0.01, 1e3): 1653.749360491811,
    (0.01, 1e6): 1655.023811494024, (0.05, 1.0): 278.56273713267717,
    (0.05, 1e3): 280.73782997118116, (0.05, 1e6): 282.1324064780885,
    (0.13, 1.0): 91.98696831069117, (0.13, 1e3): 93.57634157367342,
    (0.13, 1e6): 94.850759540146,
}


@pytest.mark.parametrize("alpha,s", sorted(PINNED_TOTALS))
def test_section7_embed_totals_are_pinned(alpha, s):
    phi = make_section7(alpha)
    ev = embedding_condition_eval(phi, embedding_weight(phi), 2, s)
    assert ev.total == PINNED_TOTALS[alpha, s]
    assert ev.truncated is (alpha == 0.01)


# ---------------------------------------------------------------------------
# input guards
# ---------------------------------------------------------------------------

_POWER2 = make_power(2.0)
_ONE = constant_weight()
NAN, INF = math.nan, math.inf

GUARDS = [
    (lambda: embedding_condition_eval(_POWER2, _ONE, 0, 2.0),
     "dimension must be >= 1"),
    (lambda: factorization_integral_condition(_POWER2, []),
     "s grid must be nonempty"),
    (lambda: factorization_integral_condition(_POWER2, [0.5, 2.0]),
     "scale s must be >= 1"),
    (lambda: weight_domination_check(_POWER2, _ONE, [0.0, 1.0]),
     "t grid must be positive"),
    (lambda: lorentz_embedding_probe(_POWER2, 1, [1.0]),
     "the probe needs dimension >= 2"),
    (lambda: embedding_condition_eval(_POWER2, _ONE, 2, NAN),
     "scale s must be >= 1"),
    (lambda: embedding_condition_eval(_POWER2, _ONE, 2, INF),
     "scale s must be >= 1"),
    (lambda: embedding_condition_sup(_POWER2, _ONE, 2, [2.0, NAN]),
     "scale s must be >= 1"),
    (lambda: factorization_integral_condition(_POWER2, [2.0, INF]),
     "scale s must be >= 1"),
    (lambda: weight_domination_check(_POWER2, _ONE, [1.0, INF]),
     "t grid must be positive"),
    (lambda: weight_domination_check(_POWER2, _ONE, [NAN, 1.0]),
     "t grid must be positive"),
    (lambda: weight_domination_check(_POWER2, _ONE, []),
     "t grid must be nonempty"),
    (lambda: lorentz_embedding_probe(_POWER2, 2, []),
     "t grid must be nonempty, finite and >= 0"),
    (lambda: lorentz_embedding_probe(_POWER2, 2, [NAN, 1.0]),
     "t grid must be nonempty, finite and >= 0"),
    (lambda: lorentz_embedding_probe(_POWER2, 2, [1.0, INF]),
     "t grid must be nonempty, finite and >= 0"),
    (lambda: lorentz_embedding_probe(_POWER2, 2, [-1.0, 1.0]),
     "t grid must be nonempty, finite and >= 0"),
    (lambda: weight_domination_check(_POWER2, _ONE, 2.0),
     "t grid must be 1-D"),
    (lambda: lorentz_embedding_probe(_POWER2, 2, 2.0),
     "t grid must be 1-D"),
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


def test_sweeps_check_every_scale_before_evaluating():
    # a bad scale anywhere in the grid stops the sweep before its first
    # evaluation, so no partial work is timed or traced
    phi = make_section7(0.05)
    with mock.patch.object(conditions, "embedding_condition_eval") as ev, \
            mock.patch.object(conditions, "integrate_finite_log") as fin:
        for bad in (0.5, NAN, INF):
            with pytest.raises(ValueError, match="^scale s must be >= 1$"):
                embedding_condition_sup(phi, embedding_weight(phi), 2,
                                        [1.0, 10.0, bad])
            with pytest.raises(ValueError, match="^scale s must be >= 1$"):
                factorization_integral_condition(phi, [1.0, 10.0, bad])
    assert ev.call_count == fin.call_count == 0


def test_only_the_embedding_sweep_calls_the_public_evaluator():
    # the benchmark times each embedding scale through the module attribute
    # embedding_condition_eval, and traces it as conditions.eval; the
    # factorization sweep evaluates past it, so a traced factorization task
    # opens only its own conditions.eval span
    phi = make_section7(0.13)
    grid = [1.0, 10.0, 100.0]
    with mock.patch.object(conditions, "embedding_condition_eval",
                           wraps=embedding_condition_eval) as ev:
        emb = embedding_condition_sup(phi, embedding_weight(phi), 2, grid)
        assert ev.call_count == len(grid)
        fact = factorization_integral_condition(phi, grid)
    assert ev.call_count == len(grid)
    assert [e.total for e in fact.evaluations] == \
        [e.total for e in emb.evaluations]
