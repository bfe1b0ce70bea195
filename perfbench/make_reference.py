"""Write perfbench/reference.json: the report quantities of one pass of every
workload at the reference seed.

    python3 perfbench/make_reference.py

Operations that fail the seed-independent gate (for example a truncated
embedding evaluation) get no reference value.  Run it only when the
reference itself is meant to change, and say why in the change.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 0


def main() -> None:
    out = {"seed": SEED, "workloads": {}}
    for name, spec in workloads.WORKLOADS.items():
        inputs = spec.build(SEED, workloads.Untraced())
        _, records = run.run_pass(spec.tasks(inputs, workloads.Untraced()))
        spec.gate(records, {})
        out["workloads"][name] = {
            r.key: {k: v for k, v in r.quantities.items()
                    if isinstance(v, float)}
            for r in sorted(records, key=lambda r: r.key) if not r.failed}
        print(name, len(out["workloads"][name]), "of", len(records),
              "operations get a reference")
    (HERE / "reference.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
