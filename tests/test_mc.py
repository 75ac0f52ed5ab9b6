"""Monte Carlo harness tests.

Aggregation must be invariant to worker count (replicate seeds are derived
from the index, results reduced in index order), records must be
re-derivable from their own fields, and the QQ helper is checked on known
samples.
"""

import dataclasses
import json

import numpy as np
import pytest

from jdsmooth import mc
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
from jdsmooth.proxy import build_proxy
from jdsmooth.simulate import (
    baseline_model,
    replicate_seed,
    simulate_path,
    true_moments,
)


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


def test_mse_trim_spans_the_percentiles(monkeypatch):
    """A trimmed MSE run fits each replicate on a grid from the 5th to the
    95th percentile of its proxy values, not over their whole range."""
    grids = []
    fit = mc.estimate_curve

    def spy(triples, spec, grid, target):
        grids.append(np.array(grid))
        return fit(triples, spec, grid, target)

    monkeypatch.setattr(mc, "estimate_curve", spy)
    cfg = small_config(replicates=2, families=(KernelFamily.GAUSSIAN,),
                       mse_trim=(5.0, 95.0), mse_grid_size=7)
    run_mse_experiment(cfg)
    assert len(grids) == 2
    for r, grid in enumerate(grids):
        path = simulate_path(cfg.model, cfg.T, cfg.n, replicate_seed(cfg.base_seed, r))
        values = build_proxy(path.y, path.delta).values
        lo, hi = np.percentile(values, [5.0, 95.0])
        np.testing.assert_array_equal(grid, np.linspace(lo, hi, 7))
        assert values.min() < lo < hi < values.max()


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


def test_gamma_points_all_below_zero_run_to_completion():
    """A cell whose Gamma points all lie below 0 records each point's own
    reason; the Gaussian cell beside it is unaffected."""
    rep = run_coverage_experiment(small_config(eval_points=(-0.2, -0.1)))
    for rec in rep.records:
        if rec["family"] == "gamma":
            assert not rec["ok"]
            assert rec["reason"] == "estimate failed: outside Gamma kernel support"
        else:
            assert rec["ok"] and rec["reason"] == ""
    rows = {row["family"]: row for row in rep.rows}
    assert rows["gamma"]["replicates_ok"] == 0 and rows["gamma"]["failures"] == 8
    assert rows["gaussian"]["replicates_ok"] == 8

    # a state process far below 0: every point of the mse grid is outside
    # the Gamma support
    model = dataclasses.replace(baseline_model(), drift_intercept=-10.0, x0=-1.0)
    rep = run_mse_experiment(small_config(model=model, mse_grid_size=5))
    for rec in rep.records:
        if rec["family"] == "gamma":
            assert (rec["ok"], rec["mse"], rec["point_failures"]) == (False, None, 5)
        else:
            assert rec["ok"] and rec["mse"] > 0
    rows = {row["family"]: row for row in rep.rows}
    assert rows["gamma"]["replicates_ok"] == 0
    assert rows["gamma"]["point_failures"] == 8 * 5


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


@pytest.mark.parametrize("overrides", [
    pytest.param({"mse_grid_size": 0}, id="grid_size_0"),
    pytest.param({"mse_grid_size": -3}, id="grid_size_negative"),
    pytest.param({"mse_trim": (5.0, 200.0)}, id="trim_above_100"),
    pytest.param({"mse_trim": (-1.0, 95.0)}, id="trim_below_0"),
    pytest.param({"mse_trim": (95.0, 5.0)}, id="trim_reversed"),
    pytest.param({"mse_trim": (5.0,)}, id="trim_one_value"),
])
def test_config_rejects_a_bad_mse_grid(overrides):
    with pytest.raises(ValueError, match="mse_"):
        small_config(**overrides)


@pytest.mark.parametrize("overrides, name", [
    pytest.param(
        {"families": (KernelFamily.GAMMA, KernelFamily.GAUSSIAN, KernelFamily.GAMMA)},
        "families", id="repeated_family",
    ),
    pytest.param({"eval_points": (0.1, 0.1)}, "eval_points", id="repeated_point"),
    pytest.param({"eval_points": (0.0, -0.0)}, "eval_points", id="signed_zeros"),
    pytest.param(
        {"bandwidths": (BandwidthSetting(fixed=0.05000001),
                        BandwidthSetting(fixed=0.05000002))},
        "bandwidths", id="equal_labels",
    ),
    pytest.param(
        {"bandwidths": (BandwidthSetting(rot_c=2.8), BandwidthSetting(rot_c=2.8))},
        "bandwidths", id="repeated_rot_c",
    ),
    pytest.param({"eval_points": (0.1, float("nan"))}, "eval_points", id="nan_point"),
    pytest.param({"eval_points": (float("-inf"),)}, "eval_points", id="inf_point"),
])
def test_config_rejects_cells_that_would_share_records(overrides, name):
    """A repeated family, point or bandwidth label would put the same
    records in two cells, each row counting them; a non-finite point
    would fail only after every replicate was simulated."""
    with pytest.raises(ValueError, match=name):
        small_config(**overrides)


def test_every_record_lands_in_exactly_one_cell():
    """Two settings x two families x three points, one below 0: one row
    per cell in (bandwidth, family[, x]) order, each cell holding one
    record per replicate, and records of keys the config does not name
    left out."""
    settings = (BandwidthSetting(fixed=0.05), BandwidthSetting(rot_c=2.8))
    cfg = small_config(
        replicates=40, bandwidths=settings, eval_points=(-0.05, 0.1, 0.2),
        mse_grid_size=5,
    )
    cov = run_coverage_experiment(cfg)
    adjusted = run_adjusted_length_experiment(cfg, records=cov.records)
    mse = run_mse_experiment(cfg)
    labels = [s.label for s in settings]
    families = ["gamma", "gaussian"]
    for report, points in ((cov, cfg.eval_points), (adjusted, cfg.eval_points),
                           (mse, (None,))):
        keys = [(b, f, x) for b in labels for f in families for x in points]
        assert [(r["bandwidth"], r["family"], r.get("x")) for r in report.rows] == keys
        cells = mc._cells(cfg, report.records, points)
        assert list(cells) == keys
        assert all(len(cell) == cfg.replicates for cell in cells.values())
        assert sorted(id(rec) for cell in cells.values() for rec in cell) == sorted(
            id(rec) for rec in report.records
        )
        if points != (None,):
            for row in report.rows:
                assert row["replicates_ok"] + row["failures"] == cfg.replicates
    gamma_below = [r for r in cov.rows if r["family"] == "gamma" and r["x"] < 0]
    assert [r["failures"] for r in gamma_below] == [cfg.replicates] * 2
    stray = dict(cov.records[0], bandwidth="h=9")
    cells = mc._cells(cfg, [*cov.records, stray], cfg.eval_points)
    assert all(rec is not stray for cell in cells.values() for rec in cell)


def test_bandwidth_setting_rejects_a_bool():
    # True is an int to isinstance and would pass as h = 1
    with pytest.raises(ValueError, match="positive"):
        BandwidthSetting(fixed=True)


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
