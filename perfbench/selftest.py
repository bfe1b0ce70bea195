"""Self-test of the benchmark (not part of the repository's test suite).

    python3 perfbench/selftest.py            # about a minute

Checks that the correctness gate counts a perturbed report quantity and a
truncated evaluation in ``failed`` (and so in fail_frac), that the untraced
and traced runs print exactly the metrics BENCHMARK.json names, that each
layer's counters move on the workload that exercises it, and that the
benchmark refuses to run without the program's sources.  Also runs under
``python3 -m pytest perfbench/selftest.py``.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REFS = json.loads(run.REFERENCE.read_text())


def _reported(records):
    """The JSON line run.report prints for these records."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.report("selftest", 0, {}, {}, records, 1, [])
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def _run(*args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, cwd=ROOT,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def _regate(spec, records, ref):
    for r in records:
        r.status.clear()
        r.wrong.clear()
    spec.gate(records, ref)


def test_perturbed_quantity_is_failed():
    spec = workloads.WORKLOADS["frame_sampling"]
    inputs = spec.build(REFS["seed"], workloads.Untraced())
    tasks = spec.tasks(inputs, workloads.Untraced())[:2]   # level 3, poly 0
    _, records = run.run_pass(tasks)
    ref = REFS["workloads"]["frame_sampling"]
    spec.gate(records, ref)
    assert _reported(records)["failed"] == 0
    records[0].quantities["lhs"] *= 1.0 + 1e-6
    _regate(spec, records, ref)
    out = _reported(records)
    assert out["failed"] == 1 and out["correct"] is False
    assert "reference" in records[0].wrong[0]


def test_negative_sandwich_margin_is_failed():
    rec = workloads.Record("sandwich/deg3", 1.0, {
        "sum": 1.0, "sum_tail": 0.1, "lower_integral": 1.0,
        "upper_integral": 1.0, "margin_lower": -1e-12, "margin_upper": 1.0,
        "passed": True})
    workloads.WORKLOADS["sandwich_hilbert"].gate([rec], {})
    assert _reported([rec])["failed"] == 1


def test_truncated_evaluation_is_failed():
    phi = workloads.young.make_section7(0.01)
    records = workloads._sweep(0.01, phi)
    spec = workloads.WORKLOADS["embed_sweep"]
    spec.gate(records, REFS["workloads"]["embed_sweep"])
    assert len(records) == len(workloads.S_GRID)
    assert all(r.quantities["truncated"] for r in records)
    assert all(r.status and not r.wrong for r in records)
    out = _reported(records)
    assert out["failed"] == len(records)
    assert out["correct"] is True   # reported truncation is not a wrong value


def test_untraced_run_prints_end_to_end_metrics():
    lines, out = _run("--workload", "frame_sampling", "--seconds", "1",
                      "--trace", "0")
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert list(out["metrics"]) == names
    for name in names + ["wall_s", "check_s_p50", "check_s_p90", "fail_frac",
                         "host_probe_s"]:
        assert any(line.split()[0] == name for line in lines[:-1]), name
    assert out["correct"] and out["failed"] == 0


# Per workload: per-layer metrics that must be nonzero, and ones that must be
# exactly zero because the workload never reaches that layer.
EXPECT = {
    "embed_sweep": (
        ["young.loginv_calls", "numerics.improper_calls", "numerics.panels",
         "numerics.decades", "numerics.truncated_frac", "conditions.eval_s",
         "numerics.finite_log_s"],
        ["young.fwd_calls", "luxemburg.poly_norm_calls", "besov.shifts",
         "trig.sample_uniform_calls"]),
    "sandwich_hilbert": (
        ["besov.modulus_calls", "besov.shifts", "besov.shift_us",
         "besov.sandwich_s"],
        ["luxemburg.poly_norm_calls", "young.fwd_calls",
         "numerics.improper_calls", "trig.translate_calls"]),
    "frame_sampling": (
        ["young.fwd_elems", "luxemburg.norm_seq_s", "trig.sample_on_grid_s",
         "trig.sample_uniform_points", "trig.frame_build_s",
         "sampling.orlicz_s.L6", "sampling.precondition_s",
         "sampling.l2_lower_s", "luxemburg.modular_evals_per_root"],
        ["besov.modulus_calls", "numerics.panels"]),
    "besov_section7": (
        ["besov.classical_norm_s", "besov.band_norm_s", "trig.translate_calls",
         "trig.convolve_calls", "trig.poly_l1_grid_bytes",
         "luxemburg.grids_per_poly_norm", "luxemburg.poly_norm_capped_frac",
         "trig.band_kernel_build_s", "besov.shift_us"],
        ["numerics.improper_calls", "young.loginv_calls"]),
}


def test_traced_run_emits_every_per_layer_metric():
    names = [m["name"] for m in SPEC["per_layer"]]
    for workload, (moved, still) in EXPECT.items():
        _, out = _run("--workload", workload, "--seconds", "1",
                      "--trace", "1")
        assert list(out["metrics"]) == names, workload
        values = {k: v["value"] for k, v in out["metrics"].items()}
        for name in moved:
            assert values[name] > 0, (workload, name)
        for name in still:
            assert values[name] == 0, (workload, name)


def test_refuses_without_sources():
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "embed_sweep",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=180)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print("ok", name)
