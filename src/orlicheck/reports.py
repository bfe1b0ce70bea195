"""Structured outcomes of inequality checks, with lossless JSON round-trips.

Checkers report worst-case margins instead of asserting, so deliberately
failing inputs (negative controls) are first-class citizens of the test
matrix.  Pass flags are always recomputable from the stored quantities.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any

import numpy as np


def _plain(obj: Any) -> Any:
    """Recursively convert numpy scalars/arrays to JSON-safe Python values."""
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    return obj


@dataclass
class ConditionReport:
    """Worst-case margin of a pointwise condition over a tested grid.

    ``margin`` is min over the grid of (RHS - LHS), or (bound - ratio) for
    ratio-type conditions; the condition holds iff margin >= -tolerance.
    The witness is the tested point attaining the worst margin.
    """

    condition_id: str
    margin: float
    witness: Any
    passed: bool
    grid_size: int
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return _plain(asdict(self))


@dataclass
class VerificationReport:
    """Outcome of one inequality check: inputs echo, computed sides, margin."""

    check_id: str
    inputs: dict
    quantities: dict
    margin: float | None
    passed: bool
    tolerance: str
    wall_time_s: float | None = None

    def to_dict(self, include_timing: bool = False) -> dict:
        d = {
            "check_id": self.check_id,
            "inputs": _plain(self.inputs),
            "quantities": _plain(self.quantities),
            "margin": _plain(self.margin),
            "passed": bool(self.passed),
            "tolerance": self.tolerance,
        }
        if include_timing and self.wall_time_s is not None:
            d["wall_time_s"] = self.wall_time_s
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "VerificationReport":
        return cls(
            check_id=d["check_id"],
            inputs=d.get("inputs", {}),
            quantities=d.get("quantities", {}),
            margin=d.get("margin"),
            passed=d["passed"],
            tolerance=d.get("tolerance", ""),
            wall_time_s=d.get("wall_time_s"),
        )
