"""The one outcome of every inequality check, and its JSON form.

Checkers report worst-case margins instead of asserting, so deliberately
failing inputs (negative controls) are first-class citizens of the test
matrix.  A check that scans a grid or a list of sample points reports
through ``worst_of``, the one place that picks its margin, witness and
verdict.  ``to_dict`` writes a report as plain JSON values: ``Status`` as its
string, non-finite floats as their ``repr``, and nested dataclasses as dicts.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from enum import Enum
from typing import Any

import numpy as np


def _plain(obj: Any) -> Any:
    """Recursively convert numpy scalars/arrays and enums to JSON-safe
    Python values."""
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, (np.floating, np.integer)):
        return _plain(obj.item())
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


@dataclass(kw_only=True)
class VerificationReport:
    """Outcome of one check: verdict, worst-case margin and its witness.

    The check holds iff ``passed``; ``margin`` is the worst slack over what
    was tested (how each check scales it is in ``tolerance``), and
    ``witness`` the tested point attaining it, where there is one.
    ``quantities`` holds the computed sides and diagnostics, ``inputs`` the
    echo of what was tested.  Every entry of ``quantities`` also reads as an
    attribute: ``rep.lhs`` is ``rep.quantities["lhs"]``.
    """

    check_id: str
    passed: bool
    margin: float
    witness: Any = None
    quantities: dict
    inputs: dict
    tolerance: str

    def __getattr__(self, name: str) -> Any:
        # only reached when normal lookup fails; private and dunder names are
        # refused, so copy and pickle, which probe for hooks on an instance
        # whose fields are not set yet, never look into ``quantities``
        quantities = self.__dict__.get("quantities", {})
        if not name.startswith("_") and name in quantities:
            return quantities[name]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}")

    def to_dict(self) -> dict:
        return _plain(asdict(self))


def worst_of(check_id: str, margins, points, slack, *, inputs: dict,
             tolerance: str, quantities: dict | None = None
             ) -> VerificationReport:
    """The report of a scanned check, from its margin at every point.

    The margin is the least entry of ``margins`` (the first one on ties,
    NaN before any number), and the witness that entry's point: a tuple of
    floats where ``points`` holds rows, a float otherwise.  The check passes
    iff that margin is at least -slack, where ``slack`` is one float or one
    value per point.
    """
    i = int(np.argmin(margins))
    margin = float(margins[i])
    point = np.asarray(points)[i]
    return VerificationReport(
        check_id=check_id,
        passed=bool(margin >= -(slack[i] if np.ndim(slack) else slack)),
        margin=margin,
        witness=tuple(map(float, point)) if np.ndim(point) else float(point),
        quantities={} if quantities is None else quantities,
        inputs=inputs, tolerance=tolerance)
