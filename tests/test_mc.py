"""Monte Carlo harness tests.

Aggregation must be invariant to worker count (replicate seeds are derived
from the index, results reduced in index order), records must be
re-derivable from their own fields, and the QQ helper is checked on known
samples.
"""

import json

import numpy as np
import pytest

from jdsmooth.kernels import KernelFamily
from jdsmooth.locallinear import Target
from jdsmooth.mc import (
    BandwidthSetting,
    McConfig,
    qq_data,
    run_adjusted_length_experiment,
    run_coverage_experiment,
    run_mse_experiment,
)
from jdsmooth.simulate import baseline_model, replicate_seed, true_moments


def small_config(**overrides):
    base = dict(
        model=baseline_model(),
        T=10.0,
        n=300,
        replicates=8,
        base_seed=123,
        families=(KernelFamily.GAMMA, KernelFamily.GAUSSIAN),
        bandwidths=(BandwidthSetting(fixed=0.05),),
        eval_points=(0.1,),
        target=Target.DRIFT,
    )
    base.update(overrides)
    return McConfig(**base)


def test_mse_experiment_deterministic_across_workers():
    cfg1 = small_config(workers=1)
    cfg8 = small_config(workers=8)
    rep1 = run_mse_experiment(cfg1)
    rep8 = run_mse_experiment(cfg8)
    assert rep1.rows == rep8.rows
    assert rep1.seeds == rep8.seeds
    assert rep1.seeds == [replicate_seed(123, r) for r in range(8)]


def test_mse_experiment_rows_structure():
    rep = run_mse_experiment(small_config())
    assert rep.experiment == "mse"
    families = {row["family"] for row in rep.rows}
    assert families == {"gamma", "gaussian"}
    for row in rep.rows:
        assert row["mse_mean"] > 0
        assert row["replicates_ok"] <= 8
        assert row["point_failures"] >= 0


def test_mse_bandwidth_rule_resolves_per_replicate():
    rep = run_mse_experiment(
        small_config(bandwidths=(BandwidthSetting(rot_c=2.8),), replicates=4)
    )
    hs = [rec["h"] for rec in rep.records]
    assert len(set(hs)) > 1  # sample spread differs per replicate


def test_coverage_records_consistent():
    cfg = small_config(replicates=30, n=500)
    rep = run_coverage_experiment(cfg)
    assert rep.experiment == "coverage"
    tm = true_moments(cfg.model, 0.1, cfg.T)
    for rec in rep.records:
        if not rec["ok"]:
            continue
        z = 1.959963984540054
        half = z * np.sqrt(rec["variance"]) / rec["rate"]
        center = rec["estimate"] - rec["bias"]
        assert rec["covered"] == bool(center - half <= tm.mu <= center + half)
    for row in rep.rows:
        assert 0.0 <= row["coverage_pct"] <= 100.0
        assert row["length_mean"] > 0
        if row["family"] == "gamma":
            assert row["length_ratio_sym_over_asym"] > 0


def test_coverage_not_degenerate_at_desk_scale():
    rep = run_coverage_experiment(small_config(replicates=40, n=800))
    gamma_rows = [r for r in rep.rows if r["family"] == "gamma"]
    assert gamma_rows[0]["coverage_pct"] > 50.0


def test_adjusted_length_experiment():
    cfg = small_config(replicates=48, n=500)
    rep = run_adjusted_length_experiment(cfg)
    assert rep.experiment == "adjusted_length"
    for row in rep.rows:
        assert row["adjusted_length_mean"] > 0
        assert 80.0 <= row["achieved_coverage_pct"] <= 100.0
        assert row["q_low"] < row["q_high"]
    with pytest.raises(ValueError):
        run_adjusted_length_experiment(small_config(replicates=10))


def test_adjusted_reuses_coverage_records():
    cfg = small_config(replicates=48, n=500)
    cov = run_coverage_experiment(cfg)
    rep = run_adjusted_length_experiment(cfg, records=cov.records)
    rep2 = run_adjusted_length_experiment(cfg)
    assert rep.rows == rep2.rows


@pytest.mark.parametrize("tau", [-1.0, 0.0, float("nan"), float("inf")])
def test_config_rejects_a_bad_regime_threshold(tau):
    # before any replicate runs, not late in the first point's classification
    with pytest.raises(ValueError, match="tau must be positive"):
        small_config(tau=tau)


def test_qq_data_normal_sample():
    rng = np.random.default_rng(0)
    theo, emp = qq_data(rng.standard_normal(200))
    assert theo.size == 200
    assert np.all(np.diff(theo) > 0)
    corr = np.corrcoef(theo, emp)[0, 1]
    assert corr > 0.99
    with pytest.raises(ValueError):
        qq_data(rng.standard_normal(10))
    with pytest.raises(ValueError):
        qq_data(np.ones(100))


def test_report_serialization(tmp_path):
    rep = run_mse_experiment(small_config(replicates=4))
    csv_path = tmp_path / "out.csv"
    json_path = tmp_path / "out.json"
    rep.to_csv(csv_path)
    rep.to_json(json_path)
    text = csv_path.read_text()
    assert text.startswith("#")
    assert "mse_mean" in text
    payload = json.loads(json_path.read_text())
    assert payload["experiment"] == "mse"
    assert payload["config"]["n"] == 300
    assert len(payload["records"]) == len(rep.records)
