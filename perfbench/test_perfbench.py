"""The benchmark's own fast test: every workload at tiny sizes, and the gate.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
TINY = workloads.SIZES["tiny"]


def _run(cwd, workload, trace, seed=5):
    cmd = [
        *SPEC["command"], "--workload", workload, "--seed", str(seed),
        "--seconds", "1", "--trace", str(trace), "--scale", "tiny",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_printed_with_its_unit(workload, trace):
    res = _run(ROOT, workload, trace)
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0, res.stderr
    assert isinstance(out["attempted"], int) and out["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]
    if not trace:
        assert all(out["metrics"][m["name"]]["value"] > 0 for m in listed)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path)
    res = _run(tmp_path, NAMES[0], 0)
    assert res.returncode != 0
    assert "metrics" not in res.stdout


def _op(name, seed=5, i=0):
    make_input, run, check = workloads.WORKLOADS[name]
    outputs, _, extra = run(make_input(seed, i, TINY[name]), TINY[name])
    return gate.normalise(outputs), extra, check


@pytest.mark.parametrize("workload", NAMES)
def test_gate_accepts_identical_and_rejects_perturbed_values(workload):
    outputs, _, _ = _op(workload)
    assert gate.compare(outputs, outputs) == []
    bad = copy.deepcopy(outputs)
    key, vals = next(
        (k, v) for k, v in sorted(bad["values"].items())
        if any(math.isfinite(x) and x != 0 for x in v)
    )
    j = next(j for j, x in enumerate(vals) if math.isfinite(x) and x != 0)
    vals[j] *= 1.0 + 1e-4
    assert gate.compare(bad, outputs)


def test_gate_rejects_a_changed_flag():
    outputs, _, _ = _op("curves")
    bad = copy.deepcopy(outputs)
    flags = bad["classes"]["small.gamma.drift.flags"]
    flags["made-up reason"] = [0]
    assert gate.compare(bad, outputs)


def test_wls_invariant_rejects_a_perturbed_intercept():
    outputs, extra, check = _op("curves")
    assert check(outputs, extra, 5, 0) == []
    for tag, (_, drift) in extra["drifts"].items():
        vals = outputs["values"][f"{tag}.drift"]
        for j in range(len(vals)):
            if math.isfinite(vals[j]):
                vals[j] += 1e-3 * (1.0 + abs(vals[j]))
    assert check(outputs, extra, 5, 0)


def test_block_cv_invariant_rejects_a_perturbed_objective():
    outputs, extra, check = _op("blockcv")
    assert check(outputs, extra, 5, 0) == []
    best = outputs["classes"]["argmin"]
    outputs["values"]["objectives"][best] *= 1.0 + 1e-4
    assert check(outputs, extra, 5, 0)


def test_mc_rows_check_rejects_a_changed_row():
    _, extra, _ = _op("mc_coverage")
    rows = extra["rows"]
    assert workloads.rows_identical(rows, copy.deepcopy(rows))
    bad = copy.deepcopy(rows)
    bad[0]["mean_bias"] = bad[0]["mean_bias"] + 1e-12
    assert not workloads.rows_identical(rows, bad)


def test_pool_thread_spans_hang_under_the_mc_call():
    import jdsmooth.locallinear
    import jdsmooth.mc

    original = jdsmooth.mc.local_linear_fit
    size = TINY["mc_coverage"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert jdsmooth.mc.local_linear_fit is not original
        tracer.run_op(
            0, workloads.mc_op, workloads.mc_input(5, 0, size), size,
            workers=workloads.MC_POOL_WORKERS,
        )
    finally:
        tracer.uninstall()
    assert jdsmooth.mc.local_linear_fit is original
    assert jdsmooth.locallinear.local_linear_fit is original
    cell = [s for s in tracer.spans if s[tracing.NAME] == "run_coverage_experiment"]
    sims = [s for s in tracer.spans if s[tracing.NAME] == "simulate_path"]
    assert len(cell) == 1 and len(sims) == size["replicates"]
    assert all(s[tracing.PARENT] == cell[0][tracing.ID] for s in sims)
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["mc.calls"] == 1
    assert metrics["simulate.steps"] == size["replicates"] * size["n"]


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        (1, None, "mc", "cell", 0.0, 10.0, 0, False, None),
        (2, 1, "simulate", "simulate_path", 1.0, 3.0, 0, False, {"steps": 7}),
        (3, 1, "simulate", "simulate_path", 2.0, 5.0, 0, False, {"steps": 7}),
        (4, 3, "simulate", "true_moments", 4.0, 4.5, 0, False, None),
    ]
    m = tracing.layer_metrics(spans)
    assert m["mc.self_s"] == pytest.approx(6.0)
    assert m["simulate.self_s"] == pytest.approx(2.0 + 2.5 + 0.5)
    assert m["simulate.calls"] == 2 and m["simulate.steps"] == 14
