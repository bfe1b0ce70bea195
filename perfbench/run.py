#!/usr/bin/env python3
"""Layered benchmark of orlicheck.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> \
        --trace <0|1>

One workload runs in this one process, single-threaded (BLAS/OpenMP pinned
to one thread), as a closed loop: a pass starts when the previous one ended,
and passes repeat until the next one would overrun ``--seconds``.  After each
pass the correctness gate checks every operation.  ``--trace 0`` reports the
end-to-end metrics, whose times are rescaled by host probes run between the
tasks of each pass (the raw times are printed too); ``--trace 1`` spends
half of the time untraced and half traced and reports the per-layer metrics
and the tracing overhead.  Human readable lines come first; the last line of
standard output is one JSON object.  ``--workload all`` runs every workload
in its own fresh process, one after another.

The program under test is imported from ``src/`` next to this directory; the
benchmark exits with status 2 when it is missing.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"
SETUP_CHILDREN = 2      # extra fresh processes that only time the set-up
MIN_PASSES = 3          # untraced passes, so that per-operation medians exist
# Host-probe time of the machine the benchmark was written on, in its faster
# phases; *_ref_s metrics are times rescaled to a host this fast.
HOST_PROBE_REF_S = 0.008
PROBE_EVERY_S = 1.0     # at most this long between two host probes
CHILD_TIMEOUT_S = 120


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def host_probe() -> float:
    """Median time of a fixed pure-Python loop; it tracks host speed.

    The checks spend most of their time in the interpreter between small
    numpy calls, and of the probes tried this one followed their times most
    closely.  The median of eleven short runs ignores brief bursts."""
    times = []
    for _ in range(11):
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def host_line() -> str:
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh
                       if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return (f"# host: python {platform.python_version()}, numpy "
            f"{numpy.__version__}, scipy {scipy.__version__}, cpu {cpu!r}, "
            f"nproc {os.cpu_count()}, OMP/OPENBLAS/MKL threads 1")


def child_setup_seconds(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def nearest_rank(xs, p):
    """Smallest sample with at least a share p of the samples at or below it.

    Unlike interpolation, this never averages two different kinds of check
    when the pooled operations of a pass take a few distinct times.
    """
    xs = sorted(xs)
    return xs[max(math.ceil(p * len(xs)), 1) - 1]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def run_pass(tasks):
    """One pass: its wall time and the records of its operations."""
    t0 = time.perf_counter()
    records = [rec for task in tasks for rec in task()]
    return time.perf_counter() - t0, records


def measure(spec, tasks, ref, budget, probes, min_passes=1, on_pass=None):
    """Closed loop of passes for ``budget`` seconds.

    A host probe runs before the first task, then between tasks whenever
    PROBE_EVERY_S has gone by since the last one, and after each pass; every
    probe time is appended to ``probes``.  Returns one list per pass of
    (seconds, records, probe) per task, where probe is the mean of the two
    probes around the task.  ``on_pass(i)`` runs before pass i.
    """
    passes = []
    probes.append(host_probe())
    last = time.perf_counter()
    start = last
    while True:
        if on_pass:
            on_pass(len(passes))
        done, pending = [], []
        for task in tasks:
            if time.perf_counter() - last >= PROBE_EVERY_S:
                probes.append(host_probe())
                last = time.perf_counter()
                done += [(s, r, 0.5 * (p + probes[-1])) for s, r, p in pending]
                pending = []
            t0 = time.perf_counter()
            recs = task()
            pending.append((time.perf_counter() - t0, recs, probes[-1]))
        probes.append(host_probe())
        last = time.perf_counter()
        done += [(s, r, 0.5 * (p + probes[-1])) for s, r, p in pending]
        spec.gate([r for _, recs, _ in done for r in recs], ref)
        passes.append(done)
        elapsed = last - start
        if (len(passes) >= min_passes and elapsed
                + statistics.median(pass_seconds(p) for p in passes)
                > budget):
            return passes


def pass_seconds(done) -> float:
    """Time of one pass, without the host probes run inside it."""
    return sum(s for s, _, _ in done)


def pass_records(done) -> list:
    return [r for _, recs, _ in done for r in recs]


def median_pass(passes, scale):
    """(wall, p50, p90, operation medians) of the median pass.

    Every pass runs the same operations, so the median pass is built
    operation by operation: each operation's median time across passes, plus
    the median time spent between operations.  A slowdown of the host during
    part of one pass moves it less than it moves the median of a few pass
    times.  The times of a task are first multiplied by ``scale(probe)``.

    The percentiles are taken over the operations that passed the gate in
    every pass; a failed operation still counts in the wall time.
    """
    per_op, failed, between = {}, set(), []
    for done in passes:
        gap = 0.0
        for seconds, recs, probe in done:
            k = scale(probe)
            gap += k * (seconds - sum(r.seconds for r in recs))
            for r in recs:
                per_op.setdefault(r.key, []).append(k * r.seconds)
                if r.failed:
                    failed.add(r.key)
        between.append(gap)
    ops = {key: statistics.median(v) for key, v in per_op.items()}
    ok = [t for key, t in ops.items() if key not in failed] or list(
        ops.values())
    return (sum(ops.values()) + statistics.median(between),
            nearest_rank(ok, 0.5), nearest_rank(ok, 0.9), ok)


def at_ref_speed(probe: float) -> float:
    """Factor that rescales a time measured next to ``probe`` to a host whose
    probe takes HOST_PROBE_REF_S."""
    return HOST_PROBE_REF_S / probe


def metric_units(kind: str) -> dict:
    """Name -> unit of the metrics BENCHMARK.json lists under ``kind``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def report(workload, seed, metrics, units, records, n_passes, extra):
    """Human-readable lines, then the JSON result line.

    Reports exactly the metrics named in ``units``; a missing one raises.
    """
    metrics = {name: metrics[name] for name in units}
    failed = [r for r in records if r.failed]
    print(f"# workload {workload}, seed {seed}: {n_passes} passes, "
          f"{len(records)} operations, {len(failed)} failed")
    for name, value in metrics.items():
        print(f"{name:34s} {value:.6g} {units[name]}")
    for line in extra:
        print(line)
    shown = {}
    for r in failed:
        why = "; ".join(([r.error] if r.error else []) + r.status + r.wrong)
        shown.setdefault(why, []).append(r.key)
    for why, keys in shown.items():
        print(f"# failed x{len(keys)} ({keys[0]} ...): {why}")
    print(json.dumps({
        "correct": bool(records) and not any(r.incorrect for r in records),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))


def run_all(args) -> int:
    """Every workload in its own fresh process, one after another."""
    import workloads
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "orlicheck" / "__init__.py").is_file():
        print(f"perfbench: no orlicheck sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.workload == "all":
        return run_all(args)

    setup_probes = [host_probe()]   # around each set-up, like the passes
    t0 = time.perf_counter()
    import orlicheck
    import workloads
    if Path(orlicheck.__file__).resolve().parent != SRC / "orlicheck":
        print(f"perfbench: imported orlicheck from {orlicheck.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    spec = workloads.WORKLOADS.get(args.workload)
    if spec is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2

    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        inputs = spec.build(args.seed, tracer)
    else:
        inputs = spec.build(args.seed, workloads.Untraced())
    setup = [time.perf_counter() - t0]
    setup_probes.append(host_probe())

    refs = json.loads(REFERENCE.read_text())
    ref = {}
    if spec.seed_free or args.seed == refs["seed"]:
        ref = refs["workloads"].get(args.workload, {})

    print(host_line())
    probes = []
    if not args.trace:
        for _ in range(SETUP_CHILDREN):
            setup.append(child_setup_seconds(args.workload, args.seed))
            setup_probes.append(host_probe())
        setup_ref = [s * at_ref_speed(0.5 * (a + b)) for s, a, b
                     in zip(setup, setup_probes, setup_probes[1:])]
        passes = measure(spec, spec.tasks(inputs, workloads.Untraced()), ref,
                         args.seconds, probes, MIN_PASSES)
        walls = [pass_seconds(p) for p in passes]
        records = [r for p in passes for r in pass_records(p)]
        wall, p50, p90, ops = median_pass(passes, lambda probe: 1.0)
        wall_ref, p50_ref, p90_ref, _ = median_pass(passes, at_ref_speed)
        metrics = {
            "setup_s": statistics.median(setup_ref),
            "wall_ref_s": wall_ref,
            "check_ref_s_p50": p50_ref,
            "check_ref_s_p90": p90_ref,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = metric_units("end_to_end")
        w1, w3 = quartiles(walls)
        c1, c3 = quartiles(ops)
        s1, s3 = quartiles(setup)
        beyond = sum(1 for x in ops if x > p90)
        failed = sum(1 for r in records if r.failed)
        extra = [
            f"{'setup_raw_s':34s} {statistics.median(setup):.6g} s",
            f"{'wall_s':34s} {wall:.6g} s",
            f"{'check_s_p50':34s} {p50:.6g} s",
            f"{'check_s_p90':34s} {p90:.6g} s",
            f"{'fail_frac':34s} {failed / len(records):.6g} 1",
            f"{'host_probe_s':34s} {statistics.median(probes):.6g} s",
            f"# setup_raw_s: {len(setup)} fresh processes, quartiles "
            f"{s1:.4g} .. {s3:.4g} s",
            f"# wall_s: {len(walls)} passes, median pass "
            f"{statistics.median(walls):.4g} s, quartiles {w1:.4g} .. "
            f"{w3:.4g} s",
            f"# check_s: medians of {len(ops)} passed operations over "
            f"{len(passes)} passes, quartiles {c1:.4g} .. {c3:.4g} s, "
            f"{beyond} beyond p90",
        ]
        report(args.workload, args.seed, metrics, units, records,
               len(passes), extra)
        return 0

    half = args.seconds / 2.0
    plain = measure(spec, spec.tasks(inputs, workloads.Untraced()), ref,
                    half, probes)
    records = [r for p in plain for r in pass_records(p)]
    tracer.install()
    try:
        traced = measure(spec, spec.tasks(inputs, tracer), ref, half, probes,
                         on_pass=lambda i: setattr(tracer, "pass_id", i))
    finally:
        tracer.uninstall()
    records += [r for p in traced for r in pass_records(p)]

    metrics = tracer.metrics(len(traced))
    metrics["trace_overhead_frac"] = (median_pass(traced, at_ref_speed)[0]
                                      / median_pass(plain, at_ref_speed)[0]
                                      - 1.0)
    metrics["host_probe_s"] = statistics.median(probes)
    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.npz"
    tracer.dump(trace_file)
    units = metric_units("per_layer")
    extra = [f"# untraced passes {len(plain)}, traced passes "
             f"{len(traced)}, {len(tracer.name)} spans in "
             f"{trace_file.relative_to(ROOT)}"]
    report(args.workload, args.seed, metrics, units, records,
           len(plain) + len(traced), extra)
    return 0


if __name__ == "__main__":
    sys.exit(main())
