"""Sampling inequalities: classical modular, Orlicz frame version, Hilbert
lower route, and random polynomial generators."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from orlicheck import trig
from orlicheck.luxemburg import norm_fun, norm_seq, poly_norm
from orlicheck.sampling import (_trial, classical_check_1d,
                                l2_sampling_lower, orlicz_sampling_check,
                                random_poly_1d, random_poly_on_frame)
from orlicheck.trig import (TrigPoly, band_kernel, convolve, fejer, frame,
                            refine_on_grid, sample_on_grid)
from orlicheck.young import SECTION7_R, make_power, make_section7


# ---------------------------------------------------------------------------
# classical 1-D inequality
# ---------------------------------------------------------------------------

def test_classical_constant_polynomial():
    g = TrigPoly(1, {(0,): 2.0})
    chk = classical_check_1d(g, make_power(2.0))
    assert chk.passed
    assert chk.lhs == pytest.approx((2.0 / 3.0) ** 2, rel=1e-12, abs=0.0)
    assert chk.rhs == pytest.approx(4.0, rel=1e-12, abs=0.0)


def test_classical_fejer4():
    chk = classical_check_1d(fejer(4), make_power(2.0))
    assert chk.passed
    assert chk.lhs > 0


def test_classical_direct_summation_oracle():
    # recompute lhs from scratch at the grid points 2 pi (k+n)/(2n+1)
    g = random_poly_1d(5, seed=0)
    phi = make_power(2.0)
    chk = classical_check_1d(g, phi)
    n = 5
    pts = 2.0 * np.pi * (np.arange(-n, n + 1) + n) / (2 * n + 1)
    direct = np.mean(phi(np.abs(g.eval_at(pts)) / 3.0))
    assert chk.lhs == pytest.approx(float(direct), rel=1e-10, abs=0.0)


def test_classical_batch_never_fails():
    phis = [make_power(1.5), make_power(2.0), make_section7(0.05)]
    rng = np.random.default_rng(123)
    for trial in range(60):
        deg = int(rng.integers(1, 65))
        g = random_poly_1d(deg, seed=1000 + trial)
        chk = classical_check_1d(g, phis[trial % 3])
        assert chk.passed, (trial, deg)


# ---------------------------------------------------------------------------
# Orlicz sampling on frames
# ---------------------------------------------------------------------------

def test_orlicz_single_coefficient_closed_form():
    phi = make_power(2.0)
    n = 3
    fr = frame(n)
    f = TrigPoly(2, {(1 - 2 ** n, 1 - 2 ** n): 1.0})   # a frame corner
    chk = orlicz_sampling_check(f, n, phi, 1.0)
    # |f| = 1 everywhere: lhs = 1/Phi^{-1}(1/omega) = sqrt(omega), and
    # constant_ratio = lhs / (Phi^{-1}(omega) ||f||_{L_2}) = sqrt(omega) /
    # (sqrt(omega) * 1) = 1; the t^2 function norm is exact (Parseval)
    assert chk.lhs == pytest.approx(math.sqrt(fr.omega), rel=1e-9, abs=0.0)
    assert chk.passed
    assert chk.constant_ratio == pytest.approx(1.0, rel=1e-9, abs=0.0)


def test_orlicz_rejects_support_violation():
    f = TrigPoly(2, {(0, 0): 1.0})  # origin sits in the hole
    with pytest.raises(ValueError):
        orlicz_sampling_check(f, 3, make_power(2.0), 1.0)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_orlicz_frame_membership_edges(n):
    # the frame is hole < max |k_i| < 2^n with hole = 2^{n-3}
    phi, hole, outer = make_power(2.0), 2 ** (n - 3), 2 ** n
    inside = [(hole + 1, 0), (0, -hole - 1), (outer - 1, 1 - outer),
              (1 - outer, 0), (hole, outer - 1)]
    for key in inside:
        assert orlicz_sampling_check(TrigPoly(2, {key: 1.0}), n, phi, 1.0,
                                     check_preconditions=False).passed
    for key in [(hole, 0), (-hole, hole), (0, 0), (outer, 0), (0, -outer),
                (outer, outer)]:
        with pytest.raises(ValueError, match="1 of 1 modes lie outside"):
            orlicz_sampling_check(TrigPoly(2, {key: 1.0}), n, phi, 1.0,
                                  check_preconditions=False)
    mixed = TrigPoly(2, {**dict.fromkeys(inside, 1.0), (hole, 0): 1.0,
                         (outer, 0): 2.0})
    with pytest.raises(ValueError, match=f"2 of 7 modes lie outside the "
                                         f"frame of level {n}"):
        orlicz_sampling_check(mixed, n, phi, 1.0, check_preconditions=False)


def test_orlicz_reports_function_norm_grid_and_convergence():
    # one doubling from 64 to 128 points leaves the section7 norm of this
    # polynomial 9.8e-5 away from settling at 1e-5; Parseval needs no grid
    f = random_poly_on_frame(3, seed=5)
    chk = orlicz_sampling_check(f, 3, make_section7(0.05), SECTION7_R,
                                check_preconditions=False)
    assert chk.fun_norm_grid == 128
    assert chk.fun_norm_converged is False
    exact = orlicz_sampling_check(f, 3, make_power(2.0), 1.0,
                                  check_preconditions=False)
    assert exact.fun_norm_grid == 0 and exact.fun_norm_converged is True


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_orlicz_function_norm_matches_sampled_grid_route(n):
    # the function norm, rooted in the buffer its |f| is sampled into (at
    # level 6 by blocks on the 1024^2 grid), against the norm of the whole
    # sampled grid: every quantity the two routes feed is the same float
    phi = make_section7(0.05)
    f = random_poly_on_frame(n, seed=60 + n)
    chk = orlicz_sampling_check(f, n, phi, SECTION7_R,
                                check_preconditions=False)
    fun_norm, grid, converged = refine_on_grid(
        f.degree, lambda m: norm_fun(phi, f.sample_uniform(m)),
        rel_tol=1e-5, max_doublings=1, max_grid=1024)
    fr = frame(n)
    lhs = norm_seq(phi, sample_on_grid(f, fr))
    inv_omega = float(phi.inverse(float(fr.omega)))
    assert grid == min(1024, 16 * 2 ** n)
    assert chk.lhs == lhs
    assert chk.rhs == 24.0 * SECTION7_R ** 2 * inv_omega * fun_norm
    assert chk.constant_ratio == lhs / (inv_omega * fun_norm)
    assert (chk.fun_norm_grid, chk.fun_norm_converged) == (grid, converged)


def test_orlicz_check_holds_one_row_of_magnitudes():
    # level 6 (degree 63, box width 127) on grids 512 and 1024: the
    # function norm holds |f| on the 1024^2 grid as one float row, the
    # (1024, 127) complex first-axis slab and two complex blocks of
    # SPLIT_BLOCK points, and never the 16 MB complex grid; the allowance
    # holds the frame-grid samples, the precondition grids and the root's
    # small arrays.  The 512^2 grid, unsplit, holds about as much (a 4 MB
    # complex buffer, its 2 MB float modulus and the FFT's 1 and 4 MB
    # slabs).  The peak is 12.0 MB; sampling the whole grid took 25.7 MB.
    f = random_poly_on_frame(6, 60)
    m, width = 1024, 127
    buffers = 8 * m * m + 16 * m * width + 2 * 16 * trig.SPLIT_BLOCK
    tracemalloc.start()
    try:
        orlicz_sampling_check(f, 6, make_section7(0.05), SECTION7_R)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < buffers + 2 ** 20


def test_orlicz_section7_batch_small():
    phi = make_section7(0.05)
    for seed in range(10):
        f = random_poly_on_frame(3, seed=seed)
        chk = orlicz_sampling_check(f, 3, phi, SECTION7_R,
                                    check_preconditions=(seed == 0))
        assert chk.passed
        assert chk.supported
        assert chk.constant_ratio <= chk.bound


def test_orlicz_unsupported_flagged_but_computed():
    # Power(3) fails sqrt-concavity-compatible hypotheses? No: it fails the
    # inverse-product condition with C = 1 for extreme x, so supported=False
    phi = make_power(3.0)
    f = TrigPoly(2, {(-7, -7): 1.0})   # a corner of the level-3 frame
    chk = orlicz_sampling_check(f, 3, phi, 1.0)
    assert chk.lhs > 0 and chk.rhs > 0  # still computed


def test_orlicz_extremal_candidate_has_higher_ratio():
    # The single-coefficient polynomial is the tightness case of the sup
    # bound ||x||_{l_Phi} <= max_j |x_j| / Phi^{-1}(1/omega), with equality
    # exactly when |x_j| is constant, so the sup-normalised ratio
    # nu(g) = lhs Phi^{-1}(1/omega) / max_j |g(x_j)| is 1 for it and at most
    # 1 for every g.  Its constant_ratio is not maximal: the frame keeps only
    # omega of the grid points, so random polynomials land on either side.
    phi = make_section7(0.05)
    n = 3
    fr = frame(n)
    inv_small = float(phi.inverse(1.0 / fr.omega))

    def nu(chk, g):
        peak = float(np.max(np.abs(sample_on_grid(g, fr))))
        return chk.lhs * inv_small / peak

    single = TrigPoly(2, {(-7, -7): 1.0})   # a frame corner
    rnd = random_poly_on_frame(n, seed=5)
    base = orlicz_sampling_check(single, n, phi, SECTION7_R,
                                 check_preconditions=False)
    other = orlicz_sampling_check(rnd, n, phi, SECTION7_R,
                                  check_preconditions=False)
    assert nu(base, single) == pytest.approx(1.0, rel=1e-9, abs=0.0)
    assert nu(other, rnd) <= 1.0
    # |single| = 1: constant_ratio = Phi^{-1}(1) / (Phi^{-1}(1/omega)
    # Phi^{-1}(omega)) (1.202845 here), from the inverse alone
    closed = float(phi.inverse(1.0)) / (
        inv_small * float(phi.inverse(float(fr.omega))))
    assert base.constant_ratio == pytest.approx(closed, rel=1e-9, abs=0.0)


# ---------------------------------------------------------------------------
# Hilbert lower route
# ---------------------------------------------------------------------------

def test_l2_lower_zero_band():
    f = TrigPoly(2, {(1, 0): 1.0})  # degree 1: the level-5 band kills it
    chk = l2_sampling_lower(f, 5)
    assert chk.passed
    assert chk.lhs == 0.0 and chk.rhs == 0.0
    assert chk.ratio == 0.0


def test_trial_ratio_is_infinite_only_for_positive_lhs():
    assert _trial("t", 3, "p", 1.0, 0.0, 1.0, True).ratio == math.inf
    assert _trial("t", 3, "p", 1.0, 4.0, 1.0, True).ratio == 0.25


def test_l2_lower_single_harmonic_closed_form():
    n = 3
    fr = frame(n)
    key = (2, 2)
    assert fr.mask[tuple(np.add(key, 2 ** n - 1))]
    f = TrigPoly(2, {key: 1.0})
    band = convolve(band_kernel(n), f)
    chk = l2_sampling_lower(f, n)
    # |band samples| are constant (single harmonic), so the sample l2 norm is
    # sqrt(omega) times the coefficient modulus
    c = abs(band.coeff(key))
    assert chk.lhs == pytest.approx(c, rel=1e-12, abs=0.0)
    assert chk.rhs == pytest.approx(2.0 * c, rel=1e-9, abs=0.0)
    assert chk.passed


def test_l2_lower_random_batch():
    worst = 0.0
    for n in (3, 4, 5):
        for seed in range(8):
            f = random_poly_on_frame(n, seed=seed, law="unimodular")
            chk = l2_sampling_lower(f, n)
            assert chk.passed
            worst = max(worst, chk.ratio)
    assert worst <= 1.0  # empirical constant well below the K = 2 threshold


# ---------------------------------------------------------------------------
# random polynomial generators
# ---------------------------------------------------------------------------

def test_random_poly_deterministic():
    a = random_poly_on_frame(4, seed=7)
    b = random_poly_on_frame(4, seed=7)
    assert a == b
    c = random_poly_on_frame(4, seed=8)
    assert a != c


def test_random_poly_parseval_law_of_large_numbers():
    fr = frame(3)
    vals = [random_poly_on_frame(3, seed=s).l2_norm() ** 2 for s in range(100)]
    assert np.mean(vals) == pytest.approx(fr.omega, rel=0.1, abs=0.0)


def test_unimodular_law_exact_energy():
    fr = frame(3)
    f = random_poly_on_frame(3, seed=0, law="unimodular")
    assert f.l2_norm() ** 2 == pytest.approx(fr.omega, rel=1e-12, abs=0.0)


def test_unknown_law_rejected():
    with pytest.raises(ValueError):
        random_poly_on_frame(3, seed=0, law="cauchy")
    with pytest.raises(ValueError):
        random_poly_1d(3, seed=0, law="levy")


# ---------------------------------------------------------------------------
# input guards
# ---------------------------------------------------------------------------

GUARDS = [
    (lambda: classical_check_1d(TrigPoly(2, {(1, 0): 1.0}), make_power(2.0)),
     "classical check needs a 1-D polynomial"),
    (lambda: l2_sampling_lower(random_poly_on_frame(3, 0), 2),
     "the frame grid needs level >= 3"),
    (lambda: orlicz_sampling_check(random_poly_on_frame(3, 0), 4,
                                   make_power(2.0), 1.0, fr=frame(3)),
     "frame of level 3 given for level 4"),
    (lambda: orlicz_sampling_check(random_poly_on_frame(3, 0), 3,
                                   make_section7(0.05), math.nan,
                                   check_preconditions=False),
     "sampling constant C must be finite and >= 1, not nan"),
    (lambda: orlicz_sampling_check(random_poly_on_frame(3, 0), 3,
                                   make_power(2.0), 0.5,
                                   check_preconditions=False),
     "sampling constant C must be finite and >= 1, not 0.5"),
    (lambda: orlicz_sampling_check(random_poly_on_frame(3, 0), 3,
                                   make_power(2.0), math.inf),
     "sampling constant C must be finite and >= 1, not inf"),
    (lambda: l2_sampling_lower(random_poly_on_frame(3, 0), 3.5),
     "band_kernel index must be an integer, not 3.5"),
]


@pytest.mark.parametrize("call, message", GUARDS,
                         ids=[m for _, m in GUARDS])
def test_input_guards_raise(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
