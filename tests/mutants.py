"""Committed mutant catalogue: small faults that named tests must catch.

Each entry replaces one exact snippet ``old`` of a source file by ``new``
and names the test ids that must fail under the change.  An entry marked
``equivalent`` is expected to survive: no input is known that shows a
result it changes, and its ``why`` argues that none exists.  ``tests/test_mutants.py`` (tier-1)
checks that every ``old`` occurs exactly once in its file, so an edit
that moves a snippet fails there instead of silently dropping a mutant.

Run the catalogue with

    python3 tests/mutants.py [name ...]

from the root of the repository.  It copies ``src/``, ``tests/`` and
``pyproject.toml`` to a temporary directory, runs every entry's tests
there once unmutated, then applies one mutant at a time and runs its
tests with ``-p no:cacheprovider``, printing killed or survived for
each.  The copy is removed at the end and nothing is written inside the
checkout.  The exit status is 1 when a mutant not marked equivalent
survives or one marked equivalent is killed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]
    why: str
    equivalent: bool = False


_FUZZ = "tests/test_cli_fuzz.py::test_drawn_option_values_exit_cleanly_in_either_form"
_BAND_DENSITY = (
    "tests/test_inference.py::test_band_companions_per_target_and_nan_outside_support"
)

MUTANTS = (
    Mutant(
        name="negative-flag-value-without-inf-nan",
        file="src/jdsmooth/cli.py",
        old='_NEGATIVE_VALUE = re.compile(r"-(\\.?\\d|inf|nan)", re.IGNORECASE)',
        new='_NEGATIVE_VALUE = re.compile(r"-(\\.?\\d)", re.IGNORECASE)',
        tests=(f"{_FUZZ}[estimate]",),
        why="`--c -inf` is taken by argparse for an option and prints usage",
    ),
    Mutant(
        name="plugin-x-finite",
        file="src/jdsmooth/cli.py",
        old='_num("x", rule=NONNEGATIVE,',
        new='_num("x", rule=FINITE,',
        tests=(
            "tests/test_cli.py::TestBandwidthCommand"
            "::test_plugin_point_below_the_support_exits_2",
            f"{_FUZZ}[bandwidth-plugin]",
        ),
        why="a plug-in point below 0 reaches the library and exits 4, not 2",
    ),
    Mutant(
        name="rule-of-thumb-span-n-minus-1",
        file="src/jdsmooth/bandwidth.py",
        old="p.delta * len(p) if T is None else T",
        new="p.delta * (len(p) - 1) if T is None else T",
        tests=("tests/test_bandwidth.py::test_default_h_grid_spans_rule_of_thumb",),
        why="the default horizon is the observation span delta * n",
    ),
    Mutant(
        name="mse-trim-ignored",
        file="src/jdsmooth/mc.py",
        old="lo, hi = np.percentile(p.values, list(cfg.mse_trim))",
        new="lo, hi = float(np.min(p.values)), float(np.max(p.values))",
        tests=("tests/test_mc.py::test_mse_trim_spans_the_percentiles",),
        why="a trimmed MSE grid spans the given percentiles of the proxy",
    ),
    Mutant(
        name="nan-curvature-gap-without-bias-correction",
        file="src/jdsmooth/inference.py",
        old="if bias_correct and not math.isfinite(curv):",
        new="if not math.isfinite(curv):",
        tests=(
            "tests/test_inference.py"
            "::test_nan_curvature_is_a_gap_only_with_bias_correction",
        ),
        why="without bias correction the curvature is not used, so NaN is no gap",
    ),
    Mutant(
        name="ingest-keeps-blank-rows",
        file="src/jdsmooth/cli.py",
        old="if not row or not any(cell.strip() for cell in row):",
        new="if not row:",
        tests=("tests/test_cli.py::TestIngest::test_blank_rows_skipped",),
        why="a row of blanks or empty cells is skipped, not read as a bad value",
    ),
    Mutant(
        name="jumptest-decision-inverted",
        file="src/jdsmooth/cli.py",
        old="    if not res.reject:\n",
        new="    if res.reject:\n",
        tests=(
            "tests/test_cli.py::TestJumptest::test_jump_free_returns_detect_no_jumps",
        ),
        why="a test that does not reject reports no jumps",
    ),
    Mutant(
        name="config-list-read-as-keys",
        file="src/jdsmooth/cli.py",
        old="if not isinstance(loaded, dict):",
        new="if isinstance(loaded, str):",
        tests=(
            "tests/test_cli.py::TestEstimate::test_unusable_config_file_exits_2[list]",
        ),
        why="a config file holding a list gets its own message, not 'unknown key'",
    ),
    Mutant(
        name="density-over-the-triples-count",
        file="src/jdsmooth/locallinear.py",
        old="np.divide(exact_row_sums(w), self.plan.size)",
        new="np.divide(exact_row_sums(w), n)",
        tests=(_BAND_DENSITY,),
        why="the density is the mean over all n proxy values, not over n - 2",
    ),
    Mutant(
        name="density-over-the-weight-points",
        file="src/jdsmooth/locallinear.py",
        old="np.divide(exact_row_sums(w), self.plan.size)",
        new="np.divide(exact_row_sums(w[:, :n]), self.plan.size)",
        tests=(_BAND_DENSITY,),
        why="the density sums the whole row, the last two proxy values included",
    ),
    Mutant(
        name="plugin-assumes-the-drift",
        file="src/jdsmooth/bandwidth.py",
        old="x, 1.0, n, delta, target, curvature, numerator, p_hat, regime",
        new="x, 1.0, n, delta, Target.DRIFT, curvature, numerator, p_hat, regime",
        tests=(
            "tests/test_inference.py::test_one_rule_judges_the_variance_numerator",
            "tests/test_bandwidth.py"
            "::test_asymptotic_h_opt_names_the_targets_numerator",
            "tests/test_cli.py::TestBandwidthCommand"
            "::test_plugin_for_the_variance_judges_the_fourth_moment",
        ),
        why="the plug-in judges the band target's own numerator by its rule",
    ),
    Mutant(
        name="grid-none-read-as-a-list",
        file="src/jdsmooth/cli.py",
        old='if v in ("", "none"):',
        new='if v == "":',
        tests=(
            "tests/test_cli.py::TestEstimate"
            "::test_grid_none_or_empty_leaves_the_default_grid[flag]",
        ),
        why='`--grid none` leaves the list unset, as "" in `--config` does',
    ),
    Mutant(
        name="text-times-not-ordered",
        file="src/jdsmooth/cli.py",
        old="t_vals = times  # fall back",
        new="t_vals = []  # fall back",
        tests=("tests/test_cli.py::TestIngest::test_iso_dates_are_ordered_as_text",),
        why="a time column of ISO dates must still increase, compared as text",
    ),
    Mutant(
        name="band-experiment-without-points-runs",
        file="src/jdsmooth/mc.py",
        old="if not cfg.eval_points:",
        new="if cfg.eval_points is None:",
        tests=(
            "tests/test_mc.py"
            "::test_band_experiment_without_points_fails_before_simulating",
        ),
        why="a band experiment without points is refused before any replicate",
    ),
    Mutant(
        name="jump-test-takes-partly-finite-returns",
        file="src/jdsmooth/inference.py",
        old="if not np.all(np.isfinite(r)):",
        new="if not np.any(np.isfinite(r)):",
        tests=("tests/test_inference.py::test_bs_jump_test_rejects_degenerate_input",),
        why="one non-finite return is refused as data, not summed into the statistic",
    ),
    Mutant(
        name="jump-count-drawn-at-a-positive-rate",
        file="src/jdsmooth/simulate.py",
        old="count = int(rng.poisson(model.jump_total))",
        new="count = int(rng.poisson(model.jump_total + 1e-9))",
        tests=tuple(
            f"tests/test_simulate.py::test_stepper_matches_indexed_loop_bit_for_bit"
            f"[{seed}-{case}]"
            for seed in (0, 7, 2024) for case in ("no_jumps", "rare_jumps")
        ),
        why=(
            "a Poisson draw at rate 0 takes no random numbers and one at a"
            " positive rate does, so a jump-free model would shift the shocks"
        ),
    ),
    Mutant(
        name="drift-truth-without-jump-mean",
        file="src/jdsmooth/simulate.py",
        old="Target.DRIFT: float(model.mu(x)) + lam * mz,",
        new="Target.DRIFT: float(model.mu(x)),",
        tests=("tests/test_mc.py::test_drift_truth_carries_the_jump_mean",),
        why="the drift estimates the first infinitesimal moment, mu(x) + lambda E[Z]",
    ),
    Mutant(
        name="bandwidth-label-always-short",
        file="src/jdsmooth/mc.py",
        old='if float(f"{v:g}") == v else',
        new='if True else',
        tests=(
            "tests/test_mc.py::test_bandwidth_label_reads_back_as_its_value",
            "tests/test_cli.py::TestMcTable::test_near_equal_bandwidths_give_two_cells",
        ),
        why="two values that print alike under :g are still two cells",
    ),
    Mutant(
        name="certified-bound-loosened",
        file="src/jdsmooth/summation.py",
        old="((m - 1) * m * 2.0**-105)",
        new="((m - 1) * m * 2.0**-100)",
        tests=(
            "tests/test_locallinear.py"
            "::test_certified_stage_refuses_few_kernel_moment_rows",
        ),
        why=(
            "a bound 32 times too wide keeps every total math.fsum's but"
            " sends 3 to 9 rows of each baseline series to math.fsum, where"
            " one at most went before"
        ),
    ),
    Mutant(
        name="certified-sigma-exponent",
        file="src/jdsmooth/summation.py",
        old="(m + 1).bit_length()",
        new="m.bit_length()",
        tests=("tests/test_summation.py",),
        equivalent=True,
        why=(
            "2^M >= m + 1 still gives sigma > m 2^E >= every partial sum of the"
            " m high parts, each a multiple of 2^-53 sigma, so their sum stays"
            " exact; the low parts stay within 2^-53 sigma and the bound"
            " (m - 1) m 2^-105 sigma, smaller with sigma, still covers them. A"
            " smaller sigma only certifies more rows, and every certified total"
            " is math.fsum's"
        ),
    ),
    Mutant(
        name="certified-bound-not-lifted",
        file="src/jdsmooth/summation.py",
        old="_LIFT = 1.0 + 2.0**-49",
        new="_LIFT = 1.0",
        tests=("tests/test_summation.py",),
        equivalent=True,
        why=(
            "the lift covers the rounding of the bound itself, a few units of"
            " 2^-53 of B. A wrong total without it needs the rounding errors"
            " B bounds to attain B within that margin, but the errors the"
            " Higham term covers reach at most half of it, and a one-addition"
            " error u|s| is attained only at a tie onto a power of two"
        ),
    ),
    Mutant(
        name="certified-half-gap-not-strict",
        file="src/jdsmooth/summation.py",
        old="np.abs(e) + bound < half_gap",
        new="np.abs(e) + bound <= half_gap",
        tests=("tests/test_summation.py",),
        equivalent=True,
        why=(
            "it certifies a row only where fl(|e| + B) == half_gap. There"
            " B > 0, since |e| > 0 needs a nonzero low sum and that adds"
            " u|low| to B; the exact sum then reaches the rounding tie only if"
            " the rounding errors B bounds attain B, which the Higham term's"
            " factor-two slack and the lift rule out in every case tried"
        ),
    ),
    Mutant(
        name="replicates-on-a-thread-pool",
        file="src/jdsmooth/mc.py",
        old=(
            "return [rec for r in range(cfg.replicates)"
            " for rec in _replicate(cfg, r, fit)]"
        ),
        new=(
            "from concurrent.futures import ThreadPoolExecutor\n"
            "    with ThreadPoolExecutor(cfg.workers) as pool:\n"
            "        worker = functools.partial(_replicate, cfg, fit=fit)\n"
            "        batches = list(pool.map(worker, range(cfg.replicates)))\n"
            "    return [rec for batch in batches for rec in batch]"
        ),
        tests=(
            "tests/test_cli.py::TestMcTable"
            "::test_replicates_run_on_the_calling_thread_for_any_workers",
            "tests/test_layering.py"
            "::test_process_pools_start_only_inside_pool_calls[mc.py]",
        ),
        why=(
            "replicates on GIL-bound threads run slower than the loop and start"
            " up to min(workers, replicates) threads"
        ),
    ),
    Mutant(
        name="lgamma-unguarded",
        file="src/jdsmooth/kernels.py",
        old="math.lgamma(s + 1.0) if s < _LGAMMA_OVERFLOW\n",
        new="math.lgamma(s + 1.0) if True\n",
        tests=(
            "tests/test_kernels.py"
            "::test_gamma_shape_beyond_the_lgamma_range_has_no_weight",
            "tests/test_cli.py::TestEstimate"
            "::test_point_beyond_the_lgamma_range_is_flagged",
            "tests/test_cli.py::TestBandwidthCommand"
            "::test_plugin_point_beyond_the_lgamma_range_exits_4",
        ),
        why=(
            "math.lgamma raises OverflowError at shapes x/h above about 2.56e305,"
            " a traceback and exit 1 from the CLI"
        ),
    ),
    Mutant(
        name="infinite-shape-row-left-nan",
        file="src/jdsmooth/kernels.py",
        old="            dens[log_gamma == math.inf] = 0.0\n",
        new="",
        tests=(
            "tests/test_kernels.py"
            "::test_gamma_shape_beyond_the_lgamma_range_has_no_weight[0.1-1e-310]",
            "tests/test_cli.py::TestCi"
            "::test_subnormal_gamma_bandwidth_flags_every_point",
        ),
        why=(
            "at a shape x/h of inf, inf * log u meets inf - inf: the row is NaN"
            " and the band's SVD fails, exit 4"
        ),
    ),
)


def apply(source: str, mutant: Mutant) -> str:
    """The source with the mutant's one ``old`` replaced by its ``new``."""
    count = source.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.name}: `old` occurs {count} times in {mutant.file}")
    return source.replace(mutant.old, mutant.new)


def _run_tests(copy: Path, tests) -> bool:
    """Whether the tests pass in the copy."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return proc.returncode == 0


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    with tempfile.TemporaryDirectory(prefix="jdsmooth-mutants-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
        every = sorted({t for m in chosen for t in m.tests})
        if not _run_tests(copy, every):
            print("the unmutated copy fails its tests; no mutant was run",
                  file=sys.stderr)
            return 2
        unexpected = 0
        for mutant in chosen:
            target = copy / mutant.file
            original = target.read_text()
            target.write_text(apply(original, mutant))
            try:
                killed = not _run_tests(copy, mutant.tests)
            finally:
                target.write_text(original)
            expected = "survived" if mutant.equivalent else "killed"
            outcome = "killed" if killed else "survived"
            note = " (equivalent)" if mutant.equivalent else ""
            if outcome != expected:
                unexpected += 1
                note += " UNEXPECTED"
            print(f"{outcome:8} {mutant.name}{note}", flush=True)
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
