"""Geometric measure checks for pairs of shifted balls.

The quantity of interest is the Lebesgue measure of the symmetric difference
of two closed radius-r balls whose centres are 2*offset apart; the verified
lower bound is V_d * r^(d-1) * offset with V_d the unit-ball volume.  Only
d = 1 (interval arithmetic) and d = 2 (circle lens), the torus dimensions of
the paper, are supported, and both are closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .reports import VerificationReport, worst_of

__all__ = [
    "BallPair",
    "unit_ball_volume",
    "symmdiff_measure",
    "check_symmdiff_lower_bound",
]


def unit_ball_volume(d: int) -> float:
    """V_d = pi^{d/2} / Gamma(d/2 + 1)."""
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


@dataclass(frozen=True)
class BallPair:
    """Two closed d-balls of radius r, centred at 0 and at distance 2*offset;
    d is 1 or 2."""

    dim: int
    radius: float
    offset: float

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError("dimension must be 1 or 2")
        if not 0.0 < self.radius < math.inf:
            raise ValueError("radius must be positive and finite")
        if not 0.0 <= self.offset < self.radius:
            raise ValueError("offset must lie in [0, radius)")


def symmdiff_measure(bp: BallPair) -> float:
    """Measure of the symmetric difference, in closed form.

    4*offset in 1-D; in 2-D the full disc area minus twice the
    circle-intersection lens.
    """
    r, a = bp.radius, bp.offset
    if bp.dim == 1:
        return 4.0 * a
    # half the centre distance is a itself
    lens = 2.0 * r * r * math.acos(a / r) - a * math.sqrt(r * r - a * a) * 2.0
    return 2.0 * math.pi * r * r - 2.0 * lens


def check_symmdiff_lower_bound(bp: BallPair) -> VerificationReport:
    """Verify measure(symmetric difference) >= V_d r^{d-1} offset.

    The closed-form measure must land nonnegative up to 1e-12 relative
    rounding.
    """
    value = symmdiff_measure(bp)
    bound = unit_ball_volume(bp.dim) * bp.radius ** (bp.dim - 1) * bp.offset
    return worst_of(
        "ball-symmdiff-lower-bound", [value - bound], None,
        1e-12 * max(bound, 1.0),
        inputs={"dim": bp.dim, "radius": bp.radius, "offset": bp.offset},
        quantities={"measure": value, "bound": bound},
        tolerance="margin >= -1e-12 relative",
    )
