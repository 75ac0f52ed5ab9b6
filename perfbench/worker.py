"""One benchmark process: set up a workload, run its ops in a closed loop, check them.

Started by run.py, never by hand.  Prints ``READY <cpu seconds>`` once
set-up is done (imports and the first op's input), then, unless
``--setup-only``, runs one op at a time until ``--seconds`` have passed
and prints one JSON line with the op timings, the gate results and, in a
traced run, the per-layer numbers.
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import sys
import traceback
from importlib import metadata
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

import jdsmooth
import jdsmooth.cli  # noqa: F401  (its import is part of set-up)

import clock
import gate
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent

# ops traced at the start of a traced run; a fixed count keeps the
# per-layer counts identical between runs of one seed
TRACED_OPS = {"curves": 2, "blockcv": 1, "mc_coverage": 3}


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _timed(fn, *args, threads=1, **kwargs):
    """Run fn once: (result, traceback or None, corrected wall, cpu, steal).

    The corrected wall is the wall time less the host steal per busy
    thread, but never less than the CPU time per busy thread.
    """
    c0, s0, t0 = process_time(), clock.steal_s(), perf_counter()
    try:
        value, error = fn(*args, **kwargs), None
    except Exception:
        value, error = None, traceback.format_exc()
    wall, cpu, steal = perf_counter() - t0, process_time() - c0, clock.steal_s() - s0
    return value, error, clock.net_wall(wall, cpu, steal, threads), cpu, steal


def _check(name, outputs, extra, seed, i, reference) -> list[str]:
    """Correctness gate: invariants always, reference outputs where recorded."""
    problems = workloads.WORKLOADS[name][2](outputs, extra, seed, i)
    if reference is not None and i < len(reference["ops"]):
        problems += gate.compare(outputs, reference["ops"][i], reference["rtol"])
    return problems


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(workloads.SIZES), default="full")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = (ROOT / "src").resolve()
    if Path(jdsmooth.__file__).resolve().parent.parent != src:
        _log(f"jdsmooth was imported from {jdsmooth.__file__}, not from {src}")
        return 2

    name = args.workload
    make_input, run, _ = workloads.WORKLOADS[name]
    size = workloads.SIZES[args.scale][name]
    t0 = perf_counter()
    first_input = make_input(args.seed, 0, size)
    inputs_s = perf_counter() - t0
    reference = gate.load_reference(name, args.seed, args.scale)
    print(f"READY {process_time()!r}", flush=True)
    if args.setup_only:
        return 0

    tracer = tracing.Tracer() if args.trace else None
    n_traced = TRACED_OPS[name] if args.trace else 0
    ops = []  # (index, corrected wall, cpu, traced, work, ok, steal)
    pool_input = None  # the first untraced mc_coverage op: (index, input, time, rows)
    start = perf_counter()
    i = 0
    # every traced op and at least one untraced op, then untraced ops until time is up
    while i <= n_traced or perf_counter() - start < args.seconds:
        traced = i < n_traced
        if traced and i == 0:
            tracer.install()
        # later inputs are drawn between ops, outside op timing
        inp = first_input if i == 0 else make_input(args.seed, i, size)
        op = functools.partial(tracer.run_op, i, run) if traced else run
        value, error, wall, cpu, steal = _timed(op, inp, size)
        work, ok = 0, False
        if error:
            _log(f"op {i} raised:\n{error}")
        else:
            outputs, work, extra = value
            problems = _check(name, gate.normalise(outputs), extra, args.seed, i, reference)
            for p in problems:
                _log(f"op {i} failed the gate: {p}")
            ok = not problems
            if name == "mc_coverage" and not traced and pool_input is None:
                pool_input = (i, inp, wall, extra["rows"])
        ops.append((i, wall, cpu, traced, work, ok, steal))
        if traced and i == n_traced - 1:
            tracer.uninstall()
        i += 1
    # peak memory of set-up and the op loop, before the pool rerun below
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "ops": ops,
        "inputs_s": inputs_s,
        "peak_rss_mb": peak_rss_mb,
        "versions": {"numpy": np.__version__, "scipy": _version("scipy")},
    }
    if pool_input is not None:
        # the same cell on the MC thread pool: rows must match bit for bit,
        # and its time against the single-thread op gives the pool metrics
        index, inp, serial_wall, rows = pool_input
        value, error, wall, cpu, _ = _timed(
            workloads.mc_op, inp, size,
            workers=workloads.MC_POOL_WORKERS, threads=workloads.MC_POOL_WORKERS,
        )
        same = error is None and workloads.rows_identical(rows, value[2]["rows"])
        if error:
            _log(f"pool rerun of op {index} raised:\n{error}")
        elif not same:
            _log(f"op {index}: rows differ between 1 and 2 workers")
        result["pool"] = {
            "index": index,
            "serial_wall": serial_wall,
            "pool_wall": wall,
            "pool_cpu": cpu,
            "same": same,
        }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer.spans)
        result["spans"] = len(tracer.spans)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans_{name}_seed{args.seed}.jsonl"
        tracer.write(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
