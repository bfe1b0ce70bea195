"""Every verdict of the package is decided in ``reports.worst_of``."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "orlicheck"


def _report_constructions(source: str):
    """Lines of the calls in source that build a ``VerificationReport``
    directly, as ``VerificationReport(...)`` or ``reports.VerificationReport(
    ...)``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            fn = node.func
            name = fn.attr if isinstance(fn, ast.Attribute) else getattr(
                fn, "id", None)
            if name == "VerificationReport":
                yield node.lineno


def test_scanner_finds_report_constructions():
    source = ("rep = VerificationReport(check_id='c', passed=True)\n"
              "rep = worst_of('c', [0.0], None, 0.0)\n"
              "rep = reports.VerificationReport(\n    check_id='c')\n"
              "def f() -> VerificationReport:\n    pass\n")
    assert list(_report_constructions(source)) == [1, 3]


def test_only_reports_builds_a_verification_report():
    sites = [f"{path.name}:{line}"
             for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "reports.py"
             for line in _report_constructions(path.read_text())]
    assert sites == []
