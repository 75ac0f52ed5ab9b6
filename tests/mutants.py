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
