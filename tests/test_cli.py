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
from jdsmooth.cli import (
    _COMMANDS,
    _flag,
    _merge_config,
    build_parser,
    ingest_series,
    main,
)
from jdsmooth.errors import ConfigError, DataError
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

    def test_blank_rows_skipped(self, tmp_path):
        # an empty line, a line of blanks and a row of empty cells; the
        # line numbers of later rows still count them
        f = self.write(tmp_path, "\nt,y\n0,1.0\n   \n1,2.0\n,\n2,3.0\n3,4.0\n\n")
        np.testing.assert_array_equal(ingest_series(f), [1.0, 2.0, 3.0, 4.0])
        f = self.write(tmp_path, "y\n1.0\n\n2.0\noops\n4.0\n")
        with pytest.raises(DataError, match=r"line\(s\) 5\b"):
            ingest_series(f)


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

    def test_all_negative_grid_flags_each_gamma_point(self, sim_dir, tmp_path):
        rc = main([
            "estimate", "--input", str(sim_dir / "path.csv"), "--delta", "0.0025",
            "--out", str(tmp_path), "--bandwidth", "0.05", "--family", "both",
            "--grid=-0.2,-0.1",
        ])
        assert rc == 0
        curves = tmp_path / "curves.csv"
        flags = column(curves, "gamma_flag", cast=str)
        assert flags == ["outside Gamma kernel support"] * 2
        assert np.all(np.isnan(column(curves, "gamma_estimate")))
        assert column(curves, "gaussian_flag", cast=str) == ["", ""]

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

    @pytest.mark.parametrize("text, message", [
        pytest.param(None, "cannot read config file", id="missing"),
        pytest.param('{"bandwidth": 0.05', "config file is not valid JSON", id="json"),
        pytest.param("[0.05]", "config file must hold a JSON object", id="list"),
    ])
    def test_unusable_config_file_exits_2(self, sim_dir, tmp_path, capsys, text, message):
        conf = tmp_path / "conf.json"
        if text is not None:
            conf.write_text(text)
        out = tmp_path / "out"
        rc = main([
            "estimate", "--config", str(conf), "--input",
            str(sim_dir / "path.csv"), "--delta", "0.0025", "--out", str(out),
        ])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flags, key, value", [
        pytest.param("estimate", [], "bandwidth", "wide", id="bandwidth"),
        pytest.param("estimate", [], "grid_min", "low", id="grid_min"),
        pytest.param("estimate", [], "grid_max", "high", id="grid_max"),
        pytest.param(
            "bandwidth", ["--method", "rule-of-thumb"], "horizon", "long", id="horizon"
        ),
        pytest.param(
            "bandwidth", ["--method", "plugin", "--x", "0.12"], "pilot_h", "wide",
            id="pilot_h",
        ),
        pytest.param("bandwidth", ["--method", "block-cv"], "k", 2.5, id="k"),
    ])
    def test_non_numeric_config_value_exits_2(
        self, sim_dir, tmp_path, capsys, command, flags, key, value
    ):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({key: value}))
        rc = main([
            command, "--config", str(conf), "--input", str(sim_dir / "path.csv"),
            "--delta", "0.0025", "--out", str(tmp_path), *flags,
        ])
        assert rc == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        pytest.param(["ci", "--alpha", "1.5"], "--alpha", id="ci_alpha"),
        pytest.param(["ci", "--tau", "-1"], "--tau", id="ci_tau"),
        pytest.param(
            ["mc-table", "--experiment", "coverage", "--eval-points", "0.1",
             "--tau", "-1"],
            "--tau", id="mc_tau",
        ),
        pytest.param(
            ["bandwidth", "--method", "plugin", "--x", "0.1", "--tau", "-1"],
            "--tau", id="plugin_tau",
        ),
        pytest.param(
            ["bandwidth", "--method", "plugin", "--x", "nan"], "--x", id="plugin_x_nan"
        ),
        pytest.param(
            ["estimate", "--grid", "nan,0.1", "--family", "gamma"], "--grid",
            id="gamma_grid_nan",
        ),
        pytest.param(
            ["estimate", "--grid", "nan,0.1", "--family", "gaussian"], "--grid",
            id="gaussian_grid_nan",
        ),
        pytest.param(
            ["estimate", "--grid", "inf,0.1", "--family", "gaussian"], "--grid",
            id="gaussian_grid_inf",
        ),
        pytest.param(["estimate", "--grid-min", "nan"], "--grid-min", id="grid_min_nan"),
        pytest.param(["ci", "--grid-max", "inf"], "--grid-max", id="grid_max_inf"),
        pytest.param(
            ["mc-table", "--experiment", "coverage", "--eval-points", "nan"],
            "--eval-points", id="eval_points_nan",
        ),
        # a negative seed is a configuration error naming key and flag, not a
        # numerical failure from the seed sequence
        pytest.param(["simulate", "--seed", "-1"], "seed (--seed)", id="seed_negative"),
        pytest.param(
            ["mc-table", "--base-seed", "-1"], "base_seed (--base-seed)",
            id="base_seed_negative",
        ),
        # model and McConfig rules are the options' own rules
        pytest.param(
            ["simulate", "--jump-total", "-1"], "jump_total (--jump-total)",
            id="jump_total_negative",
        ),
        pytest.param(
            ["mc-table", "--diffusion-const", "-1"],
            "diffusion_const (--diffusion-const)", id="diffusion_const_negative",
        ),
        pytest.param(["mc-table", "--n", "3"], "n (--n)", id="mc_n_3"),
        pytest.param(
            ["mc-table", "--replicates", "0"], "replicates (--replicates)",
            id="replicates_0",
        ),
        pytest.param(["mc-table", "--workers", "0"], "workers (--workers)",
                     id="workers_0"),
        pytest.param(
            ["mc-table", "--mse-grid-size", "0"], "mse_grid_size (--mse-grid-size)",
            id="mse_grid_size_0",
        ),
        # McConfig's and BandwidthSetting's rules, checked as options
        pytest.param(
            ["mc-table", "--experiment", "coverage", "--eval-points", "0.1,0.1"],
            "eval_points (--eval-points)", id="eval_points_repeated",
        ),
        pytest.param(["mc-table", "--fixed-h", "-1"], "fixed_h (--fixed-h)",
                     id="fixed_h_negative"),
        pytest.param(["mc-table", "--fixed-h", "0.1,0.1"], "fixed_h (--fixed-h)",
                     id="fixed_h_repeated"),
        pytest.param(["mc-table", "--rot-c", "0"], "rot_c (--rot-c)", id="mc_rot_c_0"),
        pytest.param(["mc-table", "--mse-trim", "5"], "mse_trim (--mse-trim)",
                     id="mse_trim_one_value"),
        pytest.param(["mc-table", "--mse-trim", "95,5"], "mse_trim (--mse-trim)",
                     id="mse_trim_reversed"),
    ])
    def test_out_of_range_or_non_finite_value_exits_2(
        self, sim_dir, tmp_path, capsys, argv, flag
    ):
        series = [] if argv[0] in ("mc-table", "simulate") else [
            "--input", str(sim_dir / "path.csv"), "--delta", "0.0025",
        ]
        rc = main([*argv, *series, "--out", str(tmp_path)])
        assert rc == 2
        assert flag in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, flag, value", [
        pytest.param(["estimate"], "--grid", "-0.1,0.1", id="estimate_grid"),
        pytest.param(
            ["mc-table", "--experiment", "coverage", "--T", "5", "--n", "300",
             "--replicates", "2"],
            "--eval-points", "-0.05,0.1", id="mc_eval_points",
        ),
    ])
    def test_list_value_with_a_leading_minus_parses_in_either_form(
        self, sim_dir, tmp_path, argv, flag, value
    ):
        # argparse alone takes "-0.1,0.1" after a space for an option
        series = [] if argv[0] == "mc-table" else [
            "--input", str(sim_dir / "path.csv"), "--delta", "0.0025",
        ]
        # both runs write to one directory, which the artifact headers echo
        out = tmp_path / "out"
        assert main([*argv, *series, flag, value, "--out", str(out)]) == 0
        spaced = out.rename(tmp_path / "spaced")
        assert main([*argv, *series, f"{flag}={value}", "--out", str(out)]) == 0
        names = sorted(f.name for f in spaced.iterdir())
        assert names and names == sorted(f.name for f in out.iterdir())
        for name in names:
            assert (spaced / name).read_bytes() == (out / name).read_bytes()

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
        assert "rot_c (--rot-c)" in capsys.readouterr().err


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
        assert "c (--c)" in capsys.readouterr().err
        assert not (tmp_path / "bandwidth.csv").exists()

    def test_plugin_needs_x(self, sim_dir, tmp_path, capsys):
        rc = main([
            "bandwidth", "--input", str(sim_dir / "path.csv"), "--delta", "0.0025",
            "--out", str(tmp_path), "--method", "plugin",
        ])
        assert rc == 2
        assert "--x" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "pilot, named",
        [
            (["--pilot-h", "-1"], ["--pilot-h"]),
            (["--pilot-h", "0.05", "--pilot-c", "2"], ["--pilot-h", "--pilot-c"]),
        ],
        ids=["negative_pilot_h", "both_pilot_flags"],
    )
    def test_plugin_pilot_errors_name_pilot_flags(
        self, sim_dir, tmp_path, capsys, pilot, named
    ):
        rc = main([
            "bandwidth", "--input", str(sim_dir / "path.csv"), "--delta", "0.0025",
            "--out", str(tmp_path), "--method", "plugin", "--x", "0.12", *pilot,
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert all(flag in err for flag in named), err
        assert "--bandwidth" not in err and "--rot-c" not in err
        assert not (tmp_path / "bandwidth.csv").exists()

    def test_plugin_point_below_the_support_exits_2(self, sim_dir, tmp_path, capsys):
        rc = main([
            "bandwidth", "--input", str(sim_dir / "path.csv"), "--delta", "0.0025",
            "--out", str(tmp_path), "--method", "plugin", "--x", "-0.1",
        ])
        assert rc == 2
        assert "x (--x) must be nonnegative" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_plugin_point_without_kernel_mass_exits_4(self, sim_dir, tmp_path, capsys):
        rc = main([
            "bandwidth", "--input", str(sim_dir / "path.csv"), "--delta", "0.0025",
            "--out", str(tmp_path), "--method", "plugin", "--x", "1000",
        ])
        assert rc == 4
        assert "numerical failure" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

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

    def test_all_negative_grid_gives_gamma_gaps_and_exits_0(self, sim_dir, tmp_path):
        rc = main([
            "ci", "--input", str(sim_dir / "path.csv"), "--delta", "0.0025",
            "--out", str(tmp_path), "--bandwidth", "0.08", "--family", "both",
            "--grid=-0.1,-0.05",
        ])
        assert rc == 0
        bands = tmp_path / "bands.csv"
        flags = column(bands, "gamma_flag", cast=str)
        assert flags == ["estimate failed: outside Gamma kernel support"] * 2
        for name in ("gamma_center", "gamma_lower", "gamma_upper",
                     "length_ratio_sym_over_asym"):
            assert np.all(np.isnan(column(bands, name)))
        assert column(bands, "gaussian_flag", cast=str) == ["", ""]
        for name in ("gaussian_center", "gaussian_lower", "gaussian_upper"):
            assert np.all(np.isfinite(column(bands, name)))

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

    def test_jump_free_returns_detect_no_jumps(self, tmp_path, capsys):
        # i.i.d. Gaussian returns: the null of the test holds
        r = 0.01 * np.random.default_rng(11).standard_normal(2000)
        f = tmp_path / "returns.csv"
        f.write_text("r\n" + "\n".join(repr(float(v)) for v in r) + "\n")
        rc = main([
            "jumptest", "--input", str(f), "--delta", "0.001",
            "--proxy-mode", "direct-returns", "--out", str(tmp_path),
        ])
        assert rc == 0
        payload = json.loads((tmp_path / "jumptest.json").read_text())
        assert abs(payload["statistic"]) <= 1.96 and not payload["reject"]
        assert payload["decision"] == "no jumps detected"
        assert "no jumps detected" in capsys.readouterr().out


class TestDataErrors:
    """A failure that depends on the data exits 3 and blames no flag."""

    def write(self, tmp_path, values, name="series.csv"):
        f = tmp_path / name
        f.write_text("y\n" + "\n".join(repr(float(v)) for v in values) + "\n")
        return f

    @pytest.mark.parametrize("argv", [
        pytest.param(["estimate"], id="estimate"),
        pytest.param(["ci"], id="ci"),
        pytest.param(["bandwidth", "--method", "rule-of-thumb"], id="rule_of_thumb"),
        pytest.param(["bandwidth", "--method", "block-cv"], id="block_cv"),
        pytest.param(["bandwidth", "--method", "plugin", "--x", "0.1"], id="plugin"),
    ])
    def test_series_without_spread_exits_3(self, tmp_path, capsys, argv):
        # a linear series: every proxy value is the same
        f = self.write(tmp_path, range(120))
        out = tmp_path / "out"
        rc = main([*argv, "--input", str(f), "--delta", "0.01", "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "no spread" in err and "--" not in err
        assert not any(out.iterdir())

    def test_jumptest_on_five_prices_exits_3(self, tmp_path, capsys):
        f = self.write(tmp_path, [100.0, 101.0, 100.5, 102.0, 101.5])
        rc = main(["jumptest", "--input", str(f), "--delta", "0.01",
                   "--out", str(tmp_path / "out")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "at least 10 returns" in err and "--" not in err

    def test_block_wider_than_the_series_allows_exits_3(self, tmp_path, capsys):
        y = np.cumsum(np.random.default_rng(5).standard_normal(120))
        f = self.write(tmp_path, y)
        rc = main(["bandwidth", "--input", str(f), "--delta", "0.01", "--method",
                   "block-cv", "--k", "40", "--out", str(tmp_path / "out")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "too short for block width k=40" in err and "--" not in err


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

    def test_adjusted_length_below_replicate_floor_exits_2(self, tmp_path, capsys):
        rc = main([
            "mc-table", "--experiment", "adjusted-length", "--T", "5", "--n", "300",
            "--replicates", "10", "--eval-points", "0.1", "--out", str(tmp_path),
        ])
        assert rc == 2
        assert "--replicates" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_repeated_eval_points_exit_2(self, tmp_path, capsys):
        # each row would count the point's records twice
        rc = main([
            "mc-table", "--experiment", "coverage", "--replicates", "3",
            "--eval-points", "0.1,0.1", "--out", str(tmp_path),
        ])
        assert rc == 2
        assert "eval_points" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flags", [
        pytest.param(["--mse-grid-size", "0"], id="grid_size_0"),
        pytest.param(["--mse-grid-size", "-3"], id="grid_size_negative"),
        pytest.param(["--mse-trim", "5,200"], id="trim_above_100"),
        pytest.param(["--mse-trim", "95,5"], id="trim_reversed"),
    ])
    def test_bad_mse_grid_exits_2(self, tmp_path, capsys, flags):
        rc = main([
            "mc-table", "--T", "5", "--n", "300", "--replicates", "2", *flags,
            "--out", str(tmp_path),
        ])
        assert rc == 2
        assert "mse" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


COMMANDS = ("simulate", "estimate", "bandwidth", "ci", "jumptest", "mc-table")

# a bad value: its flag text, and what a config file holds for it
BAD_VALUES = {
    "n": ("2.5", 2.5),
    "seed": ("1e3", 1e3),
    "alpha": ("abc", "abc"),
    "family": ("foo", "foo"),
    "target": ("m4", "m4"),
    "k": ("0", 0),
    "h_grid": ("-1,0.1", [-1.0, 0.1]),
    "c": ("-1", -1.0),
    "horizon": ("-1", -1.0),
}


def _bad_value_cases():
    """(command, key) for every option of BAD_VALUES a command has, where the
    bad text is not one of its choices (m4 is a target of estimate)."""
    return [
        pytest.param(command, key, id=f"{command}-{key}")
        for command, (_, _, options) in _COMMANDS.items()
        for key, (text, _) in BAD_VALUES.items()
        if key in options and text not in (options[key].choices or ())
    ]


class TestOptionTable:
    @pytest.mark.parametrize("argv, key, value", [
        pytest.param(["estimate"], "target", "bogus", id="target"),
        pytest.param(["mc-table"], "experiment", "bogus", id="experiment"),
        pytest.param(["estimate"], "out", 5, id="out"),
        pytest.param(["ci"], "bias_correct", "no", id="bias_correct"),
        pytest.param(
            ["bandwidth", "--method", "block-cv"], "family", "both",
            id="block_cv_family",
        ),
        pytest.param(
            ["bandwidth", "--method", "rule-of-thumb"], "regime", "bndry", id="regime"
        ),
        pytest.param(
            ["bandwidth", "--method", "plugin", "--x", "0.12"], "target", "m4",
            id="plugin_target",
        ),
        pytest.param(["simulate"], "seed", True, id="seed"),
        pytest.param(["simulate"], "T", 10**400, id="T_beyond_float_range"),
        pytest.param(["estimate"], "grid_count", "50", id="grid_count"),
    ])
    def test_bad_config_value_exits_2_naming_key(
        self, sim_dir, tmp_path, capsys, argv, key, value
    ):
        # config values pass the same parser and checks as flags
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({key: value}))
        series = [] if argv[0] in ("simulate", "mc-table") else [
            "--input", str(sim_dir / "path.csv"), "--delta", "0.0025",
        ]
        out = tmp_path / "out"
        out_flag = [] if key == "out" else ["--out", str(out)]
        rc = main([*argv, "--config", str(conf), *series, *out_flag])
        assert rc == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, key", _bad_value_cases())
    def test_flag_value_fails_like_the_same_config_value(
        self, sim_dir, tmp_path, capsys, command, key
    ):
        """argparse only collects text: the option's own check rejects a
        flag with the line it prints for the same value in a config file."""
        text, value = BAD_VALUES[key]
        series = ["--input", str(sim_dir / "path.csv"), "--delta", "0.0025"]
        rest = [*series, "--out", str(tmp_path / "out")]
        if "input" not in _COMMANDS[command][2]:
            rest = rest[4:]
        assert main([command, _flag(key), text, *rest]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} ({_flag(key)}) must be ")
        assert len(err.splitlines()) == 1
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({key: value}))
        assert main([command, "--config", str(conf), *rest]) == 2
        assert capsys.readouterr().err == err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_lists_each_choice(self, capsys, command):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        shown = " ".join(capsys.readouterr().out.split())
        for o in _COMMANDS[command][2].values():
            if o.choices:
                assert f"{_flag(o.key)} {{{','.join(o.choices)}}}" in shown

    @pytest.mark.parametrize("command", COMMANDS)
    def test_config_keys_are_the_parser_dests(self, tmp_path, command):
        parser = build_parser()
        dests = {
            c: set(vars(parser.parse_args([c]))) - {"command", "config"}
            for c in COMMANDS
        }
        conf = tmp_path / "conf.json"
        accepted = set()
        for key in set().union(*dests.values()):
            conf.write_text(json.dumps({key: None}))
            provided = vars(parser.parse_args([command, "--config", str(conf)]))
            del provided["command"]
            try:
                _merge_config(command, provided)
            except ConfigError as exc:
                if "unknown config key" in str(exc):
                    continue
            accepted.add(key)
        assert accepted == dests[command]


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
