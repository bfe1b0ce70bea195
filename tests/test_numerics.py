"""Safeguards of the shared numerical kernels."""

import pytest

from orlicheck.numerics import bisect_increasing


def test_bisect_solves_bracketed_target():
    x = bisect_increasing(lambda x: x ** 2 + 1, [5.0], [1.0], [2.0])
    assert x[0] == pytest.approx(2.0, rel=1e-13)


def test_bisect_rejects_unbracketable_target():
    # x^2 + 1 >= 1 never reaches 0.5: halving lo cannot bracket it
    with pytest.raises(ValueError, match="lower bracket"):
        bisect_increasing(lambda x: x ** 2 + 1, [0.5], [1.0], [2.0])
