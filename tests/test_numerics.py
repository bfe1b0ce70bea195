"""Safeguards of the shared numerical kernels."""

import math

import numpy as np
import pytest

from orlicheck.conditions import embedding_weight, power_weight
from orlicheck.numerics import (LN10, Status, chandrupatla, gauss_panel,
                                integrate_finite_log, integrate_log_improper)
from orlicheck.young import make_power, make_section7


def test_chandrupatla_solves_each_entry_and_stops_at_ftol():
    c = np.array([2.0, 5.0, 27.0, 1.0 + 1e-9])
    seen = []

    def fn(x, idx):
        seen.append(idx.copy())
        return x ** 3 - c[idx]

    lo, hi = np.ones(4), np.full(4, 4.0)
    x = chandrupatla(fn, lo, hi, lo ** 3 - c, hi ** 3 - c, rel=1e-13)
    np.testing.assert_allclose(x, np.cbrt(c), rtol=1e-13)
    # an end within ftol of a root is returned as it is, unevaluated
    seen.clear()
    x = chandrupatla(fn, lo, hi, lo ** 3 - c, hi ** 3 - c, rel=1e-13,
                     ftol=1e-8)
    assert x[3] == 1.0 and all(3 not in idx for idx in seen)
    # the first step is the secant: a linear map is solved by it
    x = chandrupatla(lambda x, idx: 3.0 * x - 1.0, [0.0], [1e3], [-1.0],
                     [2999.0], rel=1e-13, ftol=1e-15)
    assert x[0] == pytest.approx(1.0 / 3.0, rel=1e-15)


# ---------------------------------------------------------------------------
# log-domain quadrature
# ---------------------------------------------------------------------------


def _scalar_march(logF, x0, breakpoints, *, nodes=64, rel_decade_tol=1e-8,
                  tail_rel=1e-6, max_decades=2600, divergence_ratio=0.999):
    """Reference: the improper-integral march one decade at a time, each
    decade split at its interior breakpoints into scalar Gauss panels."""
    fn = lambda x: np.exp(logF(x))
    total, prev, ratio = 0.0, None, 0.0
    small_streak = slow_streak = 0
    lo = x0
    for j in range(max_decades):
        hi = lo + LN10
        edges = [lo, *sorted(p for p in breakpoints if lo < p < hi), hi]
        c = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            c += gauss_panel(fn, a, b, nodes)
        total += c
        if prev is not None and prev > 0.0:
            ratio = c / prev
            slow_streak = slow_streak + 1 if ratio >= divergence_ratio else 0
            if slow_streak >= 3 and j >= 5:
                return total, hi, j + 1, Status.DIVERGENT
        prev = c
        lo = hi
        if total > 0.0 and c < rel_decade_tol * total:
            small_streak += 1
            if small_streak >= 2:
                tail = c * ratio / (1.0 - ratio) if 0.0 < ratio < 1.0 else c
                if tail < tail_rel * total:
                    return total, hi, j + 1, Status.CONVERGED
        else:
            small_streak = 0
    return total, lo, max_decades, Status.TRUNCATED


def _second_term(phi, psi, s, d=2):
    """Log integrand, start and breakpoints of the embedding second term."""
    sigma = math.log(s)
    shift = (d - 1) * sigma

    def logF(x):
        return psi.log_value(x) + shift - phi.log_inverse(x + shift)

    breaks = tuple(psi.log_breaks) + tuple(
        b - shift for b in phi.log_inverse_breaks)
    return logF, sigma, breaks


@pytest.mark.parametrize("a", [0.05, 0.5, 2.0])
def test_improper_exponential_closed_form(a):
    # one breakpoint inside the first decade, one inside a later one
    x0 = 0.7
    res = integrate_log_improper(lambda x: -a * x, x0,
                                 breakpoints=(1.5, 30.0))
    exact = math.exp(-a * x0) / a
    assert res.status is Status.CONVERGED
    assert abs(res.value + res.tail_bound - exact) <= 1e-12 * exact


def test_improper_slow_decay_is_truncated():
    res = integrate_log_improper(lambda x: -1e-3 * x, 0.0, max_decades=50)
    assert res.status is Status.TRUNCATED and res.truncated
    assert res.n_decades == 50


def test_improper_constant_integrand_is_divergent():
    res = integrate_log_improper(lambda x: np.zeros_like(x), 0.0)
    assert res.status is Status.DIVERGENT
    assert res.tail_bound == math.inf


def test_finite_log_closed_form_with_breakpoints():
    # ln 10 falls exactly on a decade end and must not split a panel twice
    val = integrate_finite_log(lambda x: -x, 0.0, 7.0,
                               breakpoints=(1.0, math.log(10.0), 5.5))
    assert val == pytest.approx(1.0 - math.exp(-7.0), rel=1e-13)


def test_vector_gauss_panel_matches_scalar_panels():
    fn = lambda x: np.exp(-x) * np.cos(3.0 * x)
    a = np.array([0.0, 0.5, 2.0, 3.0, 4.0])
    b = np.array([0.5, 2.0, 2.0, 7.5, 3.5])       # two panels with b <= a
    vec = gauss_panel(fn, a, b)
    assert vec.shape == a.shape
    for i in range(a.size):
        ref = gauss_panel(fn, float(a[i]), float(b[i]))
        assert abs(vec[i] - ref) <= 1e-15 * max(abs(ref), 1.0)
    assert vec[2] == 0.0 and vec[4] == 0.0


def test_improper_nan_in_consumed_decade_raises():
    logF = lambda x: np.where(x > 5.0, np.nan, -0.01 * x)
    # decades [0, ln 10], [ln 10, 2 ln 10], [2 ln 10, 3 ln 10]: the third
    # holds x = 5
    with pytest.raises(ValueError, match=r"NaN on \[4\.60517"):
        integrate_log_improper(logF, 0.0)


def test_improper_nan_past_the_stop_is_discarded():
    # stops after 6 decades (x = 13.8); the first block of 8 reaches 18.4
    logF = lambda x: np.where(x > 16.0, np.nan, -2.0 * x)
    res = integrate_log_improper(logF, 0.0)
    assert res.status is Status.CONVERGED and res.x_end < 16.0
    assert res.value + res.tail_bound == pytest.approx(0.5, rel=1e-12)


def test_finite_log_nan_raises():
    with pytest.raises(ValueError, match=r"NaN on \[4\.60517"):
        integrate_finite_log(lambda x: np.where(x > 5.0, np.nan, -x),
                             0.0, 7.0)


def test_improper_overflow_is_not_converged():
    # exp(300 x) overflows from the second decade on: no warning, and the
    # first infinite decade reads as divergence, not as a spent budget
    res = integrate_log_improper(lambda x: 300.0 * x, 0.0, max_decades=40)
    assert res.status is Status.DIVERGENT
    assert res.n_decades < 40
    assert res.value == math.inf


@pytest.mark.parametrize("phi,psi", [
    (make_section7(0.05), None),
    (make_section7(0.13), None),
    (make_power(3.0), power_weight(0.3)),
], ids=["section7-0.05", "section7-0.13", "power3-pw0.3"])
@pytest.mark.parametrize("s", [1.0, 10.0, 1e6])
def test_block_march_matches_scalar_march(phi, psi, s):
    psi = psi or embedding_weight(phi)
    logF, x0, breaks = _second_term(phi, psi, s)
    res = integrate_log_improper(logF, x0, breakpoints=breaks)
    total, x_end, n, status = _scalar_march(logF, x0, breaks)
    assert (res.n_decades, res.x_end) == (n, x_end)
    assert res.status is status
    assert res.value == pytest.approx(total, rel=1e-13)


def test_block_march_calls_integrand_once_per_block():
    phi = make_section7(0.05)
    logF, x0, breaks = _second_term(phi, embedding_weight(phi), 10.0)
    calls = []

    def counted(x):
        calls.append(np.size(x))
        return logF(x)

    res = integrate_log_improper(counted, x0, breakpoints=breaks)
    assert res.status is Status.CONVERGED and res.n_decades == 2327
    assert len(calls) <= 32      # one call per decade would be 2327
