"""The suite's relative tolerances are the ones it states."""

import ast
from pathlib import Path


def _rel_without_abs(source: str):
    """Lines of the ``approx(...)`` calls in source that pass rel but not
    abs.  pytest then also accepts any difference up to its default
    abs=1e-12, which overrides rel wherever |expected| * rel < 1e-12."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            fn = node.func
            name = fn.attr if isinstance(fn, ast.Attribute) else getattr(
                fn, "id", None)
            given = {k.arg for k in node.keywords}
            if name == "approx" and "rel" in given and "abs" not in given:
                yield node.lineno


def test_scanner_finds_rel_without_abs():
    source = ("x == pytest.approx(1.0, rel=1e-3)\n"
              "x == approx(1.0, rel=1e-3, abs=0.0)\n"
              "x == approx(\n    1.0,\n    rel=1e-3)\n"
              "x == pytest.approx(1.0)\n")
    assert list(_rel_without_abs(source)) == [1, 3]


def test_every_approx_with_rel_sets_abs():
    loose = [f"{path.name}:{line}"
             for path in sorted(Path(__file__).parent.glob("*.py"))
             for line in _rel_without_abs(path.read_text())]
    assert loose == []
