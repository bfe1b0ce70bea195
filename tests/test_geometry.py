"""Symmetric difference of two shifted intervals or discs against closed
forms."""

import math

import pytest

from orlicheck.geometry import (BallPair, check_symmdiff_lower_bound,
                                symmdiff_measure)


@pytest.mark.parametrize("r,offset", [(1.0, 0.3), (2.5, 0.0), (0.7, 0.69)])
def test_interval_symmdiff_is_four_offsets(r, offset):
    # [-r, r] and [2 offset - r, 2 offset + r]: total length minus twice the
    # overlap [2 offset - r, r]
    overlap = max(0.0, r - (2.0 * offset - r))
    expect = 4.0 * r - 2.0 * overlap
    value = symmdiff_measure(BallPair(1, r, offset))
    assert type(value) is float
    assert value == pytest.approx(expect, rel=1e-14, abs=1e-15)
    assert value == 4.0 * offset


def _disc_symmdiff(r: float, c: float) -> float:
    """2 pi r^2 minus twice the lens of two radius-r discs c apart; the lens
    is two circular segments of central angle theta = 2 acos(c / 2r), each
    of area r^2 (theta - sin theta) / 2."""
    theta = 2.0 * math.acos(c / (2.0 * r))
    lens = r * r * (theta - math.sin(theta))
    return 2.0 * math.pi * r * r - 2.0 * lens


@pytest.mark.parametrize("r,offset", [(1.0, 0.3), (1.0, 0.0), (3.0, 0.1),
                                      (0.5, 0.49), (2.0, 1.0)])
def test_lens_matches_segment_formula(r, offset):
    value = symmdiff_measure(BallPair(2, r, offset))
    assert type(value) is float
    assert value == pytest.approx(_disc_symmdiff(r, 2.0 * offset),
                                  rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("dim", [1, 2])
def test_lower_bound_holds(dim):
    rep = check_symmdiff_lower_bound(BallPair(dim, 1.0, 0.2))
    assert rep.passed
    assert rep.margin > 0.0
    assert rep.measure == symmdiff_measure(BallPair(dim, 1.0, 0.2))


@pytest.mark.parametrize("dim,radius,offset", [
    (0, 1.0, 0.1), (1, 0.0, 0.0), (2, -1.0, 0.1), (2, 1.0, -0.1),
    (3, 1.0, 1.0), (3, 1.0, 0.2), (2, math.inf, 0.5)])
def test_ball_pair_rejects_bad_input(dim, radius, offset):
    with pytest.raises(ValueError):
        BallPair(dim, radius, offset)
