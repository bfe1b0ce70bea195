"""Safeguards of the shared numerical kernels."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from orlicheck import numerics
from orlicheck.conditions import (embedding_condition_eval, embedding_weight,
                                  power_weight)
from orlicheck.numerics import (LN10, ImproperIntegral, Status,
                                _decade_ends, chandrupatla,
                                gauss_panel, integrate_finite_log,
                                integrate_log_improper, newton_monotone)
from orlicheck.young import make_power, make_section7


def test_chandrupatla_solves_each_entry_and_stops_at_ftol():
    c = np.array([2.0, 5.0, 27.0, 1.0 + 1e-9])
    seen = []

    def fn(x, idx):
        seen.append(idx.copy())
        return x ** 3 - c[idx]

    lo, hi = np.ones(4), np.full(4, 4.0)
    x = chandrupatla(fn, lo, hi, lo ** 3 - c, hi ** 3 - c)
    np.testing.assert_allclose(x, np.cbrt(c), rtol=1e-13)
    # an end within ftol of a root is returned as it is, unevaluated
    seen.clear()
    x = chandrupatla(fn, lo, hi, lo ** 3 - c, hi ** 3 - c, ftol=1e-8)
    assert x[3] == 1.0 and all(3 not in idx for idx in seen)
    # the first step is the secant: a linear map is solved by it
    x = chandrupatla(lambda x, idx: 3.0 * x - 1.0, [0.0], [1e3], [-1.0],
                     [2999.0], ftol=1e-15)
    assert x[0] == pytest.approx(1.0 / 3.0, rel=1e-15, abs=0.0)


def test_chandrupatla_raises_on_entries_still_running_after_100_steps():
    # a jump at 2e-200 on the bracket [1e-200, 1] has values +-1 only, so it
    # is bisected, some 700 times before the bracket is 1e-13 wide relative;
    # the linear entry stops at its exact root on the first secant
    def fn(x, idx):
        return np.where(idx == 0, x - 0.5, np.sign(x - 2e-200))

    with pytest.raises(RuntimeError, match="1 of 2 entries"):
        chandrupatla(fn, [0.0, 1e-200], [1.0, 1.0], [-0.5, -1.0], [0.5, 1.0])


def test_newton_raises_on_entries_still_running_after_40_steps():
    # Newton on the cube root from 1 moves x to -2x each step, so it never
    # freezes at the root 0; it once returned the last iterate, about 1.1e12
    with pytest.raises(RuntimeError, match="1 of 1 entries"):
        newton_monotone(np.cbrt, lambda x: 1.0 / (3.0 * np.cbrt(x) ** 2),
                        np.zeros(1), np.ones(1))


# ---------------------------------------------------------------------------
# log-domain quadrature
# ---------------------------------------------------------------------------


def _scalar_decades(logF, x0, breakpoints, nodes, max_decades):
    """(contribution, end) of each decade, one decade at a time, each split
    at its interior breakpoints into scalar Gauss panels."""
    fn = lambda x: np.exp(logF(x))
    lo = x0
    for _ in range(max_decades):
        hi = lo + LN10
        edges = [lo, *sorted(p for p in breakpoints if lo < p < hi), hi]
        c = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            c += gauss_panel(fn, a, b, nodes)
        yield c, hi
        lo = hi


def _scalar_march(logF, x0, breakpoints=(), *, nodes=64, max_decades=2600):
    """Reference: the improper-integral march's rule applied one decade at a
    time on scalar Gauss panels."""
    total, prev, ratio = 0.0, None, 0.0
    small_streak = slow_streak = 0
    lo = x0
    with np.errstate(over="ignore"):
        for j, (c, hi) in enumerate(_scalar_decades(logF, x0, breakpoints,
                                                    nodes, max_decades)):
            if math.isnan(c):
                raise ValueError(f"integrand is NaN on [{lo!r}, {hi!r}]")
            if math.isinf(c):
                return ImproperIntegral(math.inf, math.inf, hi, j + 1,
                                        Status.DIVERGENT)
            total += c
            if prev is not None and prev > 0.0:
                ratio = c / prev
                slow_streak = slow_streak + 1 if ratio >= 0.999 else 0
                if slow_streak >= 3 and j >= 5:
                    return ImproperIntegral(total, math.inf, hi, j + 1,
                                            Status.DIVERGENT)
            prev = c
            lo = hi
            if total > 0.0 and c < 1e-8 * total:
                small_streak += 1
                if small_streak >= 2:
                    tail = (c * ratio / (1.0 - ratio) if 0.0 < ratio < 1.0
                            else c)
                    if tail < 1e-6 * total:
                        return ImproperIntegral(total, tail, hi, j + 1,
                                                Status.CONVERGED)
            else:
                small_streak = 0
    tail = prev * ratio / (1.0 - ratio) if 0.0 < ratio < 1.0 else math.inf
    return ImproperIntegral(total, tail, lo, max_decades, Status.TRUNCATED)


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
    assert val == pytest.approx(1.0 - math.exp(-7.0), rel=1e-13, abs=0.0)


def test_vector_gauss_panel_matches_scalar_panels():
    # panel counts that are not multiples of 4, where BLAS's ``@ w`` rounds
    # the last rows apart; every panel has its scalar bits
    fn = lambda x: np.exp(-x) * np.cos(3.0 * x)
    for panels in (7, 13):
        a = np.linspace(0.0, 6.0, panels)
        b = a + np.linspace(0.5, 4.5, panels)
        b[[2, 4]] = a[2], a[4] - 0.5              # two panels with b <= a
        vec = gauss_panel(fn, a, b)
        assert vec.shape == a.shape
        for i in range(a.size):
            assert vec[i] == gauss_panel(fn, float(a[i]), float(b[i]))
        assert vec[2] == 0.0 and vec[4] == 0.0


def test_improper_nan_in_consumed_decade_raises():
    logF = lambda x: np.where(x > 5.0, np.nan, -0.01 * x)
    # decades [0, ln 10], [ln 10, 2 ln 10], [2 ln 10, 3 ln 10]: the third
    # holds x = 5
    with pytest.raises(ValueError, match=r"NaN on \[4\.60517"):
        integrate_log_improper(logF, 0.0)


def test_improper_nan_past_the_stop_is_discarded():
    # stops after 6 decades (x = 13.8); the first block of 64 reaches 147
    logF = lambda x: np.where(x > 16.0, np.nan, -2.0 * x)
    res = integrate_log_improper(logF, 0.0)
    assert res.status is Status.CONVERGED and res.x_end < 16.0
    assert res.value + res.tail_bound == pytest.approx(0.5, rel=1e-12, abs=0.0)


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
    (make_section7(0.01), None),                # truncated at 2600 decades
], ids=["section7-0.05", "section7-0.13", "power3-pw0.3", "section7-0.01"])
@pytest.mark.parametrize("s", [1.0, 10.0, 1e6])
def test_block_march_matches_scalar_march(phi, psi, s):
    psi = psi or embedding_weight(phi)
    logF, x0, breaks = _second_term(phi, psi, s)
    res = integrate_log_improper(logF, x0, breakpoints=breaks)
    assert res == _scalar_march(logF, x0, breaks)


def _slow_pair_then_flat(x):
    # decades 62 and 63 end the first block with two ratios >= 0.999, the
    # next block opens decaying, and the third slow decade comes only at 101
    return -1e-3 * (np.minimum(x, 61.0 * LN10)
                    + np.clip(x, 64.0 * LN10, 100.0 * LN10) - 64.0 * LN10)


def _nan_from_decade_150(x):
    # decades run [j ln 10, (j + 1) ln 10]; 150 lies inside a 64-block
    return np.where(x > 149.5 * LN10, np.nan, -1e-3 * x)


@pytest.mark.parametrize("logF,max_decades", [
    (lambda x: -1e-3 * x, 50),
    (lambda x: -1e-3 * x, 130),                 # cuts the third block short
    (lambda x: np.where(x < 30.0, -np.inf, -0.05 * x), 2600),
    (lambda x: np.where((x > 200.0) & (x < 300.0), -np.inf, -1e-3 * x),
     2600),
    (lambda x: 300.0 * x, 40),                  # overflow
    (lambda x: np.zeros_like(x), 2600),         # constant: divergent
    (lambda x: -1e-3 * np.minimum(x, 400.0), 2600),  # flat from decade 174
    (_slow_pair_then_flat, 2600),
    (lambda x: -0.5 * x, 2600),
], ids=["slow-50", "slow-130", "zero-head", "zero-gap", "overflow",
        "constant", "flat-tail", "slow-pair", "exponential"])
def test_block_march_matches_per_decade_rule(logF, max_decades):
    res = integrate_log_improper(logF, 0.0, max_decades=max_decades)
    assert res == _scalar_march(logF, 0.0, max_decades=max_decades)


def test_block_march_nan_inside_a_block_matches_per_decade_rule():
    with pytest.raises(ValueError) as got:
        integrate_log_improper(_nan_from_decade_150, 0.0)
    with pytest.raises(ValueError) as want:
        _scalar_march(_nan_from_decade_150, 0.0)
    lo, hi = _decade_ends(0.0, 150)[-2:].tolist()
    assert str(got.value) == str(want.value) == (
        f"integrand is NaN on [{lo!r}, {hi!r}]")


def test_block_march_calls_integrand_once_per_block():
    phi = make_section7(0.05)
    logF, x0, breaks = _second_term(phi, embedding_weight(phi), 10.0)
    calls = []

    def counted(x):
        calls.append(np.size(x))
        return logF(x)

    res = integrate_log_improper(counted, x0, breakpoints=breaks)
    assert res.status is Status.CONVERGED and res.n_decades == 2327
    # blocks of 64 decades until one holds the stop
    assert len(calls) == -(-res.n_decades // 64) == 37
    # the breakpoints all split the first block; later ones hold 4096 nodes
    assert calls[0] > 64 * 64 and calls[1:] == [64 * 64] * 36


@pytest.mark.parametrize("phi,psi,s", [
    (make_section7(0.05), None, 10.0),
    (make_section7(0.13), None, 1.0),
    (make_section7(0.13), None, 1e6),
    (make_power(3.0), power_weight(0.3), 10.0),
], ids=["section7-0.05-s10", "section7-0.13-s1", "section7-0.13-s1e6",
        "power3-pw0.3-s10"])
def test_march_values_do_not_depend_on_block_layout(phi, psi, s, monkeypatch):
    logF, x0, breaks = _second_term(phi, psi or embedding_weight(phi), s)
    ends = _decade_ends(x0, 40)

    def run():
        # a budget of 100 decades cuts a block of 3, 64 or 128 short
        return (integrate_log_improper(logF, x0, breakpoints=breaks),
                integrate_log_improper(logF, x0, breakpoints=breaks,
                                       max_decades=100),
                integrate_finite_log(logF, x0, float(ends[-1]),
                                     breakpoints=breaks))

    want = run()
    for block_nodes in (64, 192, 8192):     # 1, 3 and 128 decades of 64
        monkeypatch.setattr(numerics, "_BLOCK_NODES", block_nodes)
        assert run() == want
    # the finite integral's one block is the sum of its decades taken alone
    assert want[2] == sum(integrate_finite_log(logF, lo, hi,
                                               breakpoints=breaks)
                          for lo, hi in zip(ends[:-1].tolist(),
                                            ends[1:].tolist()))


def test_march_working_set_stays_below_trim_threshold():
    phi = make_section7(0.01)
    psi = embedding_weight(phi)
    embedding_condition_eval(phi, psi, 2, 1e6)        # warm the caches
    tracemalloc.start()
    try:
        embedding_condition_eval(phi, psi, 2, 1e6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 192_000


@pytest.mark.parametrize("x0", [math.inf, -math.inf, math.nan])
def test_improper_rejects_non_finite_start(x0):
    with pytest.raises(ValueError, match="finite"):
        integrate_log_improper(lambda x: -x, x0)


@pytest.mark.parametrize("max_decades", [0, -3, 100.0, 2.5])
def test_improper_rejects_empty_budget(max_decades):
    # a float budget once failed in np.full with a bare TypeError
    message = f"max_decades must be an integer >= 1, not {max_decades!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        integrate_log_improper(lambda x: -x, 0.0, max_decades=max_decades)


@pytest.mark.parametrize("x0,x1", [(0.0, math.inf), (-math.inf, 0.0),
                                   (math.nan, 1.0), (0.0, math.nan),
                                   (math.inf, 0.0)])
def test_finite_log_rejects_non_finite_ends(x0, x1):
    with pytest.raises(ValueError, match="finite"):
        integrate_finite_log(lambda x: -x, x0, x1)


@pytest.mark.parametrize("nodes", [0, -3, 1.5, 64.0, None])
@pytest.mark.parametrize("integrate", [
    lambda nodes: integrate_log_improper(lambda x: -x, 0.0, nodes=nodes),
    lambda nodes: integrate_finite_log(lambda x: -x, 0.0, 7.0, nodes=nodes),
], ids=["improper", "finite"])
def test_integrals_reject_bad_node_counts(integrate, nodes):
    # nodes=0 once raised a bare ZeroDivisionError from the block size
    message = f"nodes must be an integer >= 1, not {nodes!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        integrate(nodes)
