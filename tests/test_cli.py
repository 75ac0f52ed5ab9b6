"""Command line tests.

The contract under test: headered CSV in, headered CSV/JSON artifacts out,
exit codes 2/3/4 for config/data/numerical failures, config files merged
beneath explicit flags, and a simulate -> estimate round trip through the
filesystem that is bit-identical to the in-memory pipeline.
"""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import jdsmooth
from jdsmooth import __version__
from jdsmooth.cli import ingest_series, main
from jdsmooth.errors import DataError
from jdsmooth.kernels import KernelFamily, KernelSpec
from jdsmooth.locallinear import estimate_drift_curve
from jdsmooth.proxy import build_proxy, build_regression_triples
from jdsmooth.simulate import baseline_model, simulate_path


def read_table(path):
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    header, data = rows[0], rows[1:]
    return header, data


def read_comments(path):
    with open(path) as fh:
        return [line.rstrip("\n") for line in fh if line.startswith("#")]


def column(path, name, cast=float):
    header, data = read_table(path)
    i = header.index(name)
    return np.array([cast(row[i]) for row in data]) if cast is float else [
        row[i] for row in data
    ]


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    rc = main([
        "simulate", "--out", str(out), "--T", "5", "--n", "2000", "--seed", "3",
    ])
    assert rc == 0
    return out


class TestIngest:
    def write(self, tmp_path, text, name="series.csv"):
        f = tmp_path / name
        f.write_text(text)
        return f

    def test_single_column(self, tmp_path):
        f = self.write(tmp_path, "y\n1.0\n2.0\n3.0\n4.5\n")
        values = ingest_series(f)
        np.testing.assert_array_equal(values, [1.0, 2.0, 3.0, 4.5])

    def test_two_columns_defaults_to_second(self, tmp_path):
        f = self.write(tmp_path, "t,y\n0,1.0\n1,2.0\n2,3.0\n3,4.5\n")
        np.testing.assert_array_equal(ingest_series(f), [1.0, 2.0, 3.0, 4.5])

    def test_named_columns(self, tmp_path):
        f = self.write(tmp_path, "a,b,c\n0,9,1.0\n1,9,2.0\n2,9,3.0\n3,9,4.0\n")
        values = ingest_series(f, value_column="c", time_column="a")
        np.testing.assert_array_equal(values, [1.0, 2.0, 3.0, 4.0])

    def test_time_column_none_skips_monotonicity(self, tmp_path):
        f = self.write(tmp_path, "t,y\n5,1.0\n2,2.0\n9,3.0\n1,4.0\n")
        values = ingest_series(f, time_column="none")
        assert values.size == 4

    def test_empty_file(self, tmp_path):
        f = self.write(tmp_path, "")
        with pytest.raises(DataError, match="empty"):
            ingest_series(f)

    def test_header_only(self, tmp_path):
        f = self.write(tmp_path, "t,y\n")
        with pytest.raises(DataError, match="no data rows"):
            ingest_series(f)

    def test_too_few_rows(self, tmp_path):
        f = self.write(tmp_path, "y\n1.0\n2.0\n3.0\n")
        with pytest.raises(DataError, match="at least 4"):
            ingest_series(f)

    def test_bad_value_reports_line_number(self, tmp_path):
        f = self.write(tmp_path, "y\n1.0\noops\n3.0\nnan\n5.0\n")
        with pytest.raises(DataError, match=r"line\(s\) 3, 5"):
            ingest_series(f)

    def test_non_monotone_time_reports_line(self, tmp_path):
        f = self.write(tmp_path, "t,y\n0,1.0\n1,2.0\n1,3.0\n3,4.0\n")
        with pytest.raises(DataError, match="increasing at line 4"):
            ingest_series(f)

    def test_missing_column_name(self, tmp_path):
        f = self.write(tmp_path, "t,y\n0,1.0\n1,2.0\n2,3.0\n3,4.0\n")
        with pytest.raises(DataError, match="'z' not found"):
            ingest_series(f, value_column="z")

    def test_comment_lines_skipped(self, tmp_path):
        f = self.write(
            tmp_path, "# preamble\n# more\nt,y\n0,1.0\n1,2.0\n2,3.0\n3,4.0\n"
        )
        np.testing.assert_array_equal(ingest_series(f), [1.0, 2.0, 3.0, 4.0])


class TestSimulate:
    def test_artifacts_exist_with_headers(self, sim_dir):
        for name in ("path.csv", "state.csv", "jumps.csv"):
            comments = read_comments(sim_dir / name)
            assert comments[0] == f"# jdsmooth {__version__}"
            assert comments[1] == "# command: simulate"
            assert comments[2].startswith("# config: {")
            assert comments[3] == "# seed: 3"

    def test_path_matches_library(self, sim_dir):
        path = simulate_path(baseline_model(), 5.0, 2000, 3)
        y = column(sim_dir / "path.csv", "y")
        x = column(sim_dir / "state.csv", "x")
        np.testing.assert_array_equal(y, path.y)
        np.testing.assert_array_equal(x, path.x)
        sizes = column(sim_dir / "jumps.csv", "size")
        np.testing.assert_array_equal(sizes, path.jump_sizes)

    def test_substep_thins_to_requested_resolution(self, tmp_path):
        rc = main([
            "simulate", "--out", str(tmp_path), "--T", "2", "--n", "100",
            "--seed", "5", "--substep", "4",
        ])
        assert rc == 0
        y = column(tmp_path / "path.csv", "y")
        assert y.size == 101
        fine = simulate_path(baseline_model(), 2.0, 400, 5).thin(4)
        np.testing.assert_array_equal(y, fine.y)

    def test_bad_model_parameter_is_config_error(self, tmp_path, capsys):
        rc = main([
            "simulate", "--out", str(tmp_path), "--jump-size-std", "-1",
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestEstimate:
    def test_round_trip_matches_memory_pipeline_bitwise(self, sim_dir, tmp_path):
        grid = np.linspace(0.05, 0.2, 9)
        rc = main([
            "estimate", "--input", str(sim_dir / "path.csv"), "--delta", "0.0025",
            "--out", str(tmp_path), "--bandwidth", "0.08", "--family", "gamma",
            "--grid", ",".join(repr(float(g)) for g in grid),
        ])
        assert rc == 0
        path = simulate_path(baseline_model(), 5.0, 2000, 3)
        triples = build_regression_triples(build_proxy(path.y, path.delta))
        curve = estimate_drift_curve(
            triples, KernelSpec(KernelFamily.GAMMA, 0.08), grid
        )
        got = column(tmp_path / "curves.csv", "gamma_estimate")
        assert np.array_equal(column(tmp_path / "curves.csv", "x"), grid)
        assert np.array_equal(got, curve.values, equal_nan=True)

    def test_per_point_failures_flagged_not_fatal(self, sim_dir, tmp_path):
        rc = main([
            "estimate", "--input", str(sim_dir / "path.csv"), "--delta", "0.0025",
            "--out", str(tmp_path), "--bandwidth", "0.08", "--family", "both",
            "--grid=-0.5,0.1",
        ])
        assert rc == 0
        header, data = read_table(tmp_path / "curves.csv")
        flag = data[0][header.index("gamma_flag")]
        est = data[0][header.index("gamma_estimate")]
        assert flag != "" and est == "nan"
        assert data[1][header.index("gamma_flag")] == ""
        # the symmetric kernel has no support restriction at negative x
        assert data[0][header.index("gaussian_flag")] == ""

    def test_variance_target_and_rot_bandwidth(self, sim_dir, tmp_path):
        rc = main([
            "estimate", "--input", str(sim_dir / "path.csv"), "--delta", "0.0025",
            "--out", str(tmp_path), "--rot-c", "2.8", "--target", "variance",
            "--family", "gamma", "--grid-min", "0.05", "--grid-max", "0.2",
            "--grid-count", "7",
        ])
        assert rc == 0
        values = column(tmp_path / "curves.csv", "gamma_estimate")
        assert values.size == 7
        assert np.all(np.isfinite(values)) and np.all(values > 0)

    def test_config_file_merges_beneath_flags(self, sim_dir, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({
            "bandwidth": 0.05, "family": "gamma", "grid": [0.1, 0.15],
        }))
        rc = main([
            "estimate", "--config", str(conf), "--input",
            str(sim_dir / "path.csv"), "--delta", "0.0025",
            "--out", str(tmp_path), "--bandwidth", "0.08",
        ])
        assert rc == 0
        comments = read_comments(tmp_path / "curves.csv")
        echo = json.loads(comments[2].split("# config: ", 1)[1])
        assert echo["bandwidth"] == 0.08  # flag wins
        assert echo["family"] == "gamma"  # config wins over default
        header, data = read_table(tmp_path / "curves.csv")
        assert [row[header.index("x")] for row in data] == ["0.1", "0.15"]

    def test_unknown_config_key_exits_2(self, sim_dir, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text('{"bogus_key": 1}')
        rc = main([
            "estimate", "--config", str(conf), "--input",
            str(sim_dir / "path.csv"), "--delta", "0.0025",
        ])
        assert rc == 2
        assert "bogus_key" in capsys.readouterr().err

    def test_missing_delta_exits_2(self, sim_dir, capsys):
        rc = main(["estimate", "--input", str(sim_dir / "path.csv")])
        assert rc == 2
        assert "--delta" in capsys.readouterr().err

    def test_missing_input_file_exits_3(self, tmp_path, capsys):
        rc = main([
            "estimate", "--input", str(tmp_path / "nope.csv"), "--delta", "0.01",
        ])
        assert rc == 3
        capsys.readouterr()

    def test_both_bandwidth_flags_exit_2(self, sim_dir, capsys):
        rc = main([
            "estimate", "--input", str(sim_dir / "path.csv"), "--delta", "0.0025",
            "--bandwidth", "0.1", "--rot-c", "2.0",
        ])
        assert rc == 2
        assert "not both" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["estimate", "ci"])
    def test_zero_rot_c_exits_2(self, sim_dir, tmp_path, capsys, command):
        rc = main([
            command, "--input", str(sim_dir / "path.csv"), "--delta", "0.0025",
            "--out", str(tmp_path), "--rot-c", "0", "--grid", "0.1",
        ])
        assert rc == 2
        assert "scale constant c" in capsys.readouterr().err


class TestBandwidthCommand:
    def test_block_cv_writes_score_curve(self, sim_dir, tmp_path):
        rc = main([
            "bandwidth", "--input", str(sim_dir / "path.csv"), "--delta", "0.0025",
            "--out", str(tmp_path), "--method", "block-cv",
            "--h-grid", "0.05,0.08,0.12",
        ])
        assert rc == 0
        header, data = read_table(tmp_path / "bandwidth.csv")
        row = dict(zip(header, data[0]))
        assert row["method"] == "block_cv"
        candidates = column(tmp_path / "score_curve.csv", "candidate_h")
        objectives = column(tmp_path / "score_curve.csv", "objective")
        np.testing.assert_array_equal(candidates, [0.05, 0.08, 0.12])
        assert float(row["h"]) == candidates[int(np.argmin(objectives))]

    def test_rule_of_thumb(self, sim_dir, tmp_path):
        rc = main([
            "bandwidth", "--input", str(sim_dir / "path.csv"), "--delta", "0.0025",
            "--out", str(tmp_path), "--method", "rule-of-thumb", "--c", "2.8",
        ])
        assert rc == 0
        header, data = read_table(tmp_path / "bandwidth.csv")
        row = dict(zip(header, data[0]))
        assert row["method"] == "rule_of_thumb"
        assert float(row["c"]) == 2.8 and float(row["h"]) > 0

    def test_rule_of_thumb_zero_c_exits_2(self, sim_dir, tmp_path, capsys):
        rc = main([
            "bandwidth", "--input", str(sim_dir / "path.csv"), "--delta", "0.0025",
            "--out", str(tmp_path), "--method", "rule-of-thumb", "--c", "0",
        ])
        assert rc == 2
        assert "scale constant c" in capsys.readouterr().err
        assert not (tmp_path / "bandwidth.csv").exists()

    def test_plugin_needs_x(self, sim_dir, tmp_path, capsys):
        rc = main([
            "bandwidth", "--input", str(sim_dir / "path.csv"), "--delta", "0.0025",
            "--out", str(tmp_path), "--method", "plugin",
        ])
        assert rc == 2
        assert "--x" in capsys.readouterr().err

    def test_plugin_selects_positive_h(self, sim_dir, tmp_path):
        rc = main([
            "bandwidth", "--input", str(sim_dir / "path.csv"), "--delta", "0.0025",
            "--out", str(tmp_path), "--method", "plugin", "--x", "0.12",
            "--pilot-h", "0.1",
        ])
        assert rc == 0
        header, data = read_table(tmp_path / "bandwidth.csv")
        row = dict(zip(header, data[0]))
        assert row["method"] == "asymptotic_plugin"
        assert float(row["h"]) > 0


class TestCi:
    def test_bands_columns_and_ratio(self, sim_dir, tmp_path):
        rc = main([
            "ci", "--input", str(sim_dir / "path.csv"), "--delta", "0.0025",
            "--out", str(tmp_path), "--bandwidth", "0.08",
            "--grid", "0.05,0.1,0.15",
        ])
        assert rc == 0
        header, data = read_table(tmp_path / "bands.csv")
        for name in ("gamma_center", "gamma_lower", "gamma_upper",
                     "gaussian_center", "length_ratio_sym_over_asym"):
            assert name in header
        lower = column(tmp_path / "bands.csv", "gamma_lower")
        upper = column(tmp_path / "bands.csv", "gamma_upper")
        center = column(tmp_path / "bands.csv", "gamma_center")
        assert np.all(lower <= center) and np.all(center <= upper)
        ratio = column(tmp_path / "bands.csv", "length_ratio_sym_over_asym")
        assert np.all(np.isfinite(ratio)) and np.all(ratio > 0)
        regimes = column(tmp_path / "bands.csv", "gamma_regime", cast=str)
        assert all(r.startswith("boundary:") for r in regimes)

    def test_single_family_has_no_ratio_column(self, sim_dir, tmp_path):
        rc = main([
            "ci", "--input", str(sim_dir / "path.csv"), "--delta", "0.0025",
            "--out", str(tmp_path), "--bandwidth", "0.08", "--family", "gamma",
            "--grid", "0.1",
        ])
        assert rc == 0
        header, _ = read_table(tmp_path / "bands.csv")
        assert "length_ratio_sym_over_asym" not in header

    def test_default_grid_flags_gamma_points_below_zero(self, sim_dir, tmp_path):
        # the proxy dips below 0, so the default grid (its full range)
        # starts outside the Gamma kernel's support
        rc = main([
            "ci", "--input", str(sim_dir / "path.csv"), "--delta", "0.0025",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        bands = tmp_path / "bands.csv"
        x = column(bands, "x")
        below = np.flatnonzero(x < 0)
        assert below.size > 0
        flags = column(bands, "gamma_flag", cast=str)
        assert [i for i, f in enumerate(flags) if f] == below.tolist()
        for name in ("gaussian_center", "gaussian_lower", "gaussian_upper"):
            assert np.all(np.isfinite(column(bands, name)[below]))

    def test_m4_target_rejected(self, sim_dir, capsys):
        rc = main([
            "ci", "--input", str(sim_dir / "path.csv"), "--delta", "0.0025",
            "--target", "m4", "--bandwidth", "0.08",
        ])
        assert rc == 2
        capsys.readouterr()


class TestJumptest:
    def test_json_payload_and_stdout(self, sim_dir, tmp_path, capsys):
        rc = main([
            "jumptest", "--input", str(sim_dir / "path.csv"), "--delta", "0.0025",
            "--proxy-mode", "levels", "--out", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "BS statistic:" in out
        payload = json.loads((tmp_path / "jumptest.json").read_text())
        assert payload["version"] == __version__
        assert payload["n"] == 2000
        assert payload["bipower_variation"] > 0
        assert payload["reject"] == (abs(payload["statistic"]) > 1.96)

    def test_state_increments_detect_jumps(self, tmp_path, capsys):
        # feed the state increments as direct returns: jumps live in the
        # state, so this is the series where the test has power
        path = simulate_path(
            baseline_model(jump_total=50.0, jump_size_std=0.1), 5.0, 5000, 7
        )
        f = tmp_path / "xincr.csv"
        rows = "\n".join(repr(float(v)) for v in np.diff(path.x))
        f.write_text("r\n" + rows + "\n")
        rc = main([
            "jumptest", "--input", str(f), "--delta", "0.001",
            "--proxy-mode", "direct-returns", "--out", str(tmp_path),
        ])
        assert rc == 0
        payload = json.loads((tmp_path / "jumptest.json").read_text())
        assert payload["statistic"] < -1.96
        assert payload["decision"] == "jumps detected"
        assert "jumps detected" in capsys.readouterr().out


class TestMcTable:
    def test_artifacts_identical_across_worker_counts(self, tmp_path):
        args = [
            "mc-table", "--experiment", "coverage", "--T", "5", "--n", "400",
            "--replicates", "6", "--eval-points", "0.1,0.15",
            "--fixed-h", "0.1", "--base-seed", "7",
        ]
        out1, out4 = tmp_path / "w1", tmp_path / "w4"
        assert main(args + ["--out", str(out1), "--workers", "1"]) == 0
        assert main(args + ["--out", str(out4), "--workers", "4"]) == 0
        for name in ("mc_coverage.csv", "mc_coverage.json"):
            assert (out1 / name).read_bytes() == (out4 / name).read_bytes()

    def test_mse_table_rows(self, tmp_path):
        rc = main([
            "mc-table", "--experiment", "mse", "--T", "5", "--n", "300",
            "--replicates", "4", "--rot-c", "2.8", "--base-seed", "7",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        header, data = read_table(tmp_path / "mc_mse.csv")
        assert "mse_mean" in header
        assert len(data) == 2  # both families, one bandwidth setting
        payload = json.loads((tmp_path / "mc_mse.json").read_text())
        assert payload["version"] == __version__
        assert payload["experiment"] == "mse"

    def test_coverage_without_eval_points_exits_2(self, tmp_path, capsys):
        rc = main([
            "mc-table", "--experiment", "coverage", "--out", str(tmp_path),
        ])
        assert rc == 2
        assert "eval-points" in capsys.readouterr().err


def test_import_loads_no_scipy():
    src = Path(jdsmooth.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    code = (
        "import sys, jdsmooth, jdsmooth.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    assert done.stdout.strip() == "[]"


def test_version_flag(capsys):
    rc = main(["--version"])
    assert rc == 0
    assert __version__ in capsys.readouterr().out


def test_usage_error_exit_code(capsys):
    rc = main(["estimate", "--family", "nonsense"])
    assert rc == 2
    capsys.readouterr()
