"""Time one cold set-up in a fresh process: import orlicheck and build the
inputs of one workload.  Prints the seconds; run.py starts it.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
import time
from pathlib import Path

t0 = time.perf_counter()
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402  (imports numpy and orlicheck: part of set-up)

workloads.WORKLOADS[sys.argv[1]].build(int(sys.argv[2]), workloads.Untraced())
print(time.perf_counter() - t0)
