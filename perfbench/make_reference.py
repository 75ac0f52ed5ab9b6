"""Record the reference outputs the correctness gate compares against.

    python3 perfbench/make_reference.py

Runs the first REFERENCE_OPS ops of every workload at the default seed
and full size and writes perfbench/reference/<workload>.json.  Run it only on a commit
whose outputs are known good: a later run compares against these files.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gate  # noqa: E402
import workloads  # noqa: E402

REFERENCE_OPS = 3


def rounded(outputs: dict) -> dict:
    """Values kept to 10 significant digits, far inside the gate's tolerance."""
    values = {
        key: [float(f"{v:.10g}") for v in vals] for key, vals in outputs["values"].items()
    }
    return {"values": values, "classes": outputs["classes"]}


def main() -> int:
    gate.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in sorted(workloads.WORKLOADS):
        make_input, run, check = workloads.WORKLOADS[name]
        size = workloads.SIZES["full"][name]
        ops = []
        for i in range(REFERENCE_OPS):
            outputs, _, extra = run(make_input(gate.DEFAULT_SEED, i, size), size)
            outputs = gate.normalise(outputs)
            problems = check(outputs, extra, gate.DEFAULT_SEED, i)
            if problems:
                raise SystemExit(f"{name} op {i} fails its invariants: {problems}")
            ops.append(rounded(outputs))
        payload = {"seed": gate.DEFAULT_SEED, "rtol": gate.RTOL, "ops": ops}
        path = gate.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")
        print(f"wrote {path.relative_to(ROOT)} ({REFERENCE_OPS} ops)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
