"""The jdsmooth benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload curves --seed 1 --seconds 20 --trace 0

Workloads are ``curves``, ``blockcv`` and ``mc_coverage`` (see
perfbench/README.md).  Each run starts fresh interpreters on the
``src/`` tree of this checkout, with BLAS threads capped at 1.  The load
is a closed loop: one client runs one op at a time.

With ``--trace 0`` the run times set-up in three fresh interpreters
(the median is ``setup_s``), then runs ops for ``--seconds`` and prints
the end-to-end metrics.  With ``--trace 1`` it reads the import
breakdown from ``python -X importtime``, traces a fixed number of ops,
runs untraced ops for the rest of ``--seconds`` and prints the per-layer
metrics.  The last line of stdout is the result object; the line before
it is the run record, which is also written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import clock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("curves", "blockcv", "mc_coverage")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NOTES = (
    "closed loop, one op at a time on one thread; one extra mc_coverage cell "
    "per run uses the 2-thread MC pool. Per-layer numbers cover the traced "
    "ops only; calls through private helpers are charged to the public caller."
)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH)])
    for var in BLAS_VARS:
        env[var] = BLAS_THREADS
    return env


class Child:
    """A worker process killed at the run's deadline if still alive."""

    def __init__(self, cmd, deadline, **kwargs):
        self.steal = clock.steal_s()
        self.started = perf_counter()
        self.proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, text=True, **kwargs)
        self.timer = threading.Timer(max(0.0, deadline - perf_counter()), self.proc.kill)
        self.timer.start()

    def finish(self):
        try:
            out, err = self.proc.communicate()
        finally:
            self.timer.cancel()
        return self.proc.returncode, out, err


def worker(args, deadline, setup_only=False):
    """Start worker.py; returns (setup seconds, return code, stdout lines)."""
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scale", args.scale,
    ]
    if setup_only:
        cmd.append("--setup-only")
    child = Child(cmd, deadline, stdout=subprocess.PIPE)
    first = child.proc.stdout.readline().split()
    wall = perf_counter() - child.started
    steal = clock.steal_s() - child.steal
    code, rest, _ = child.finish()
    if len(first) != 2 or first[0] != "READY":
        return None, code or 1, []
    # the worker's set-up runs on one thread; first[1] is its CPU time so far
    return clock.net_wall(wall, float(first[1]), steal), code, rest.splitlines()


def _tree(stderr: str) -> list:
    """Nodes [depth, name, cumulative_us, children] of a -X importtime log."""
    stack = []
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not line.startswith("import time:"):
            continue
        try:
            cum = int(parts[1])
        except ValueError:
            continue  # the header line
        raw = parts[2][1:]
        node = [len(raw) - len(raw.lstrip()), raw.strip(), cum, []]
        while stack and stack[-1][0] > node[0]:
            node[3].insert(0, stack.pop())
        stack.append(node)
    return stack


def _top(nodes, prefix) -> list:
    """Outermost nodes naming prefix or one of its submodules."""
    found = []
    for node in nodes:
        if node[1] == prefix or node[1].startswith(prefix + "."):
            found.append(node)
        else:
            found += _top(node[3], prefix)
    return found


def import_breakdown(deadline) -> dict:
    cmd = [sys.executable, "-X", "importtime", "-c", "import jdsmooth, jdsmooth.cli"]
    code, _, err = Child(cmd, deadline, stderr=subprocess.PIPE).finish()
    if code != 0:
        raise RuntimeError(f"importing jdsmooth failed:\n{err}")
    jd = _top(_tree(err), "jdsmooth")
    numpy_us = sum(n[2] for n in _top(jd, "numpy"))
    scipy = _top(jd, "scipy")
    scipy_us = sum(n[2] for n in scipy) - sum(n[2] for n in _top(scipy, "numpy"))
    jd_us = sum(n[2] for n in jd) - numpy_us - scipy_us
    return {
        "setup.import_numpy_s": numpy_us / 1e6,
        "setup.import_scipy_s": scipy_us / 1e6,
        "setup.import_jdsmooth_s": jd_us / 1e6,
    }


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    res = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return res.stdout.strip() or None


def metric(value, unit):
    return {"value": value, "unit": unit}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny sizes are for the benchmark's own test")
    args = ap.parse_args()
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "jdsmooth" / "__init__.py").is_file():
        print(f"no jdsmooth source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = perf_counter() + DEADLINE_S

    setups = []
    imports = {}
    if args.trace:
        imports = import_breakdown(deadline)
    else:
        for _ in range(SETUP_SAMPLES - 1):
            setup_s, code, _ = worker(args, deadline, setup_only=True)
            if setup_s is None or code != 0:
                print("set-up failed", file=sys.stderr)
                return 1
            setups.append(setup_s)
    setup_s, code, lines = worker(args, deadline)
    if setup_s is None or code != 0 or not lines:
        print(f"the benchmark worker failed (exit code {code})", file=sys.stderr)
        return 1
    setups.append(setup_s)
    res = json.loads(lines[-1])

    ops = res["ops"]  # [index, corrected wall, cpu, traced, work, ok, steal]
    bad = {o[0] for o in ops if not o[5]}
    pool = res.get("pool")
    if pool and not pool["same"]:
        bad.add(pool["index"])
    attempted, failed = len(ops), len(bad)
    untraced = [o for o in ops if not o[3]]
    walls = [o[1] for o in untraced]

    if args.trace:
        traced_walls = [o[1] for o in ops if o[3]]
        metrics = {k: metric(v, "s") for k, v in imports.items()}
        metrics["setup.inputs_s"] = metric(res["inputs_s"], "s")
        for key, value in res["layers"].items():
            unit = "s" if key.endswith("_s") else ("fraction" if key.endswith("_frac") else "count")
            metrics[key] = metric(value, unit)
        cpu_per_wall, speedup = 0.0, 0.0
        if args.workload == "mc_coverage":
            cpu_per_wall = pool["pool_cpu"] / pool["pool_wall"]
            speedup = pool["serial_wall"] / pool["pool_wall"]
        metrics["mc.cpu_per_wall"] = metric(cpu_per_wall, "ratio")
        metrics["mc.pool_speedup"] = metric(speedup, "ratio")
        metrics["trace.overhead_s"] = metric(
            statistics.median(traced_walls) - statistics.median(walls), "s"
        )
    else:
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "op_p50_s": metric(statistics.median(walls), "s"),
            "work_per_s": metric(sum(o[4] for o in ops) / sum(o[1] for o in ops), "1/s"),
            "ok_frac": metric((attempted - failed) / attempted, "fraction"),
            "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
        }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "git_sha": git_sha(),
        "src_sha256_16": source_digest(),
        "python": platform.python_version(),
        **res["versions"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "op_times_s": [o[1] for o in ops],
        "op_cpu_s": [o[2] for o in ops],
        "op_steal_s": [o[6] for o in ops],
        "op_samples": len(walls),
        "traced_ops": attempted - len(untraced),
        "setup_samples_s": setups,
        "failed_ops": sorted(bad),
        "pool_rerun": pool,
        "spans": res.get("spans"),
        "spans_file": res.get("spans_file"),
        "notes": NOTES,
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    name = f"record_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps({"record": record, "metrics": metrics}, indent=1))
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
