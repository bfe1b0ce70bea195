"""The one outcome of every inequality check, and its JSON form.

Checkers report worst-case margins instead of asserting, so deliberately
failing inputs (negative controls) are first-class citizens of the test
matrix.  Every check hands ``worst_of`` its margins, the points they were
taken at (if it has a witness) and the slack of each, and ``worst_of`` is
the one place that decides a verdict, by one rule: the check passes iff
every margin is at least minus its own slack, and a NaN margin fails.
``to_dict`` writes a report as plain JSON values: ``Status`` as its string,
non-finite floats as their ``repr``, and nested dataclasses as dicts.
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
    """Outcome of one check, as ``worst_of`` decides it: verdict,
    worst-case margin and its witness.

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
    """The report of a check, from its margin at every point.

    The check passes iff every entry of ``margins`` is at least minus its
    own slack, where ``slack`` is one float or one value per entry; a NaN
    margin fails.  The margin is the least entry (the first one on ties,
    NaN before any number), and the witness that entry's point: a tuple of
    floats where ``points`` holds rows, a float where it holds numbers, and
    None where ``points`` is None.
    """
    margins = np.asarray(margins, dtype=float)
    i = int(margins.argmin())
    point = None if points is None else np.asarray(points)[i]
    return VerificationReport(
        check_id=check_id,
        passed=bool((margins >= np.negative(slack)).all()),
        margin=float(margins[i]),
        witness=(None if point is None else tuple(map(float, point))
                 if np.ndim(point) else float(point)),
        quantities={} if quantities is None else quantities,
        inputs=inputs, tolerance=tolerance)
