"""Command line surface: simulate, estimate, bandwidth, ci, jumptest, mc-table.

Input series arrive as CSV with a header row; the sampling interval delta
is always given explicitly, never inferred from timestamps, because the
calendar convention behind a time column (five-minute bars counted in
days, say) is not recoverable from the data.  The observed column can be
levels of the integrated series, prices to be logged, or per-interval
returns; exactly one of those proxy modes applies per run.

Each option is declared once, in the ``_COMMANDS`` table: its ``--config``
key and flag, default, choices and check; the model's and mc-table's
options take their checks from ``ModelSpec``'s and ``McConfig``'s fields.
argparse only collects text, which becomes what a ``--config`` file would
hold (a number where it reads as one); ``_Opt.value`` checks flag and
file values alike before any command runs, and a bad one is a
configuration error, ``key (--flag) must be ..., got ...``.  Commands
read typed values (a ``Target``, a tuple of kernel families, float tuples).

Every artifact is plain CSV or JSON carrying comment/header lines with
the package version, the fully merged configuration as given, and the
seed, so a result file documents how to regenerate itself.  Numbers are
written in shortest round-trip form, which makes simulate followed by
estimate on the written file bit-identical to the in-memory pipeline.
Failures at individual grid points become per-point flags inside the
output, even where one kernel family fails at every point; only
configuration and data problems abort a run; a data error (a proxy
without spread, too few returns, too short a series) names no flag.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import re
import sys
from collections.abc import Callable
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from ._version import VERSION
from .bandwidth import asymptotic_h_opt, block_cv, rule_of_thumb
from .errors import (
    FINITE,
    NONNEGATIVE,
    OPEN_UNIT,
    POSITIVE,
    ConfigError,
    DataError,
    JdsmoothError,
    at_least,
    checked,
    checked_list,
)
from .inference import (
    BS_CRITICAL,
    NUMERATOR_TARGET,
    band_companions,
    bs_jump_test,
    confidence_band,
    length_ratio,
)
from .kernels import (
    DEFAULT_REGIME_THRESHOLD,
    KernelFamily,
    KernelSpec,
    RegimeKind,
    classify_point,
)
from .locallinear import Target, estimate_curve
from .mc import (
    MIN_ADJUSTED_REPLICATES,
    BandwidthSetting,
    McConfig,
    run_adjusted_length_experiment,
    run_coverage_experiment,
    run_mse_experiment,
)
from .proxy import ProxySeries, build_log_proxy, build_proxy, build_regression_triples
from .simulate import ModelSpec, baseline_model, simulate_path

_TARGETS = {
    "drift": Target.DRIFT,
    "variance": Target.COND_VARIANCE,
    "m4": Target.FOURTH_MOMENT,
    "m6": Target.SIXTH_MOMENT,
}

# rule-of-thumb scale constant when neither a bandwidth nor c is given
_DEFAULT_C = 2.0


def _fmt(v) -> str:
    """Shortest round-trip text for a cell value."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _config_echo(cfg: dict) -> str:
    return json.dumps(cfg, sort_keys=True, default=str)


def _write_table(path: Path, command: str, cfg: dict, seed, columns, rows) -> None:
    with path.open("w", newline="") as fh:
        fh.write(f"# jdsmooth {VERSION}\n# command: {command}\n")
        fh.write(f"# config: {_config_echo(cfg)}\n")
        fh.write(f"# seed: {seed if seed is not None else 'none'}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([_fmt(v) for v in row] for row in rows)


def _out_dir(o) -> Path:
    out = Path(o.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# input handling


def _number(text: str, cast=float):
    """``cast(text)``, else ``float(text)``, else the text itself, which a
    number check then rejects as it rejects a string in a config file."""
    for c in (cast, float):
        try:
            return c(text)
        except ValueError:
            pass
    return text


def ingest_series(
    path, value_column: str | None = None, time_column: str | None = None
) -> np.ndarray:
    """Read an ordered value sequence from a headered CSV file.

    With one column the file is the value series; with more, the first
    column is taken as time and the second as the value unless names are
    given.  Passing time_column="none" ignores any time column.  Rows
    whose value does not parse as a finite number are reported by line
    number; a time column, when present, must be strictly increasing.
    """
    path = Path(path)
    try:
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    kept: list[tuple[int, list[str]]] = []
    for lineno, row in enumerate(rows, start=1):
        if not row or not any(cell.strip() for cell in row):
            continue
        if row[0].lstrip().startswith("#"):
            continue
        kept.append((lineno, row))
    if not kept:
        raise DataError(f"{path.name} is empty")
    header = [h.strip() for h in kept[0][1]]
    data = kept[1:]
    if not data:
        raise DataError(f"{path.name} has no data rows")

    def _column(name: str, role: str) -> int:
        if name not in header:
            raise DataError(f"{role} column {name!r} not found in header {header}")
        return header.index(name)

    if value_column is not None:
        vi = _column(value_column, "value")
    else:
        vi = 0 if len(header) == 1 else 1
    if time_column is not None and time_column.lower() != "none":
        ti = _column(time_column, "time")
    elif time_column is None and len(header) > 1 and vi != 0:
        ti = 0
    else:
        ti = None

    values = np.empty(len(data))
    times: list[str] = []
    lines: list[int] = []
    bad: list[int] = []
    width = 1 + max(vi, 0 if ti is None else ti)
    for j, (line, row) in enumerate(data):
        lines.append(line)
        v = _number(row[vi]) if len(row) >= width else None
        if not (isinstance(v, float) and math.isfinite(v)):
            bad.append(line)
            continue
        values[j] = v
        if ti is not None:
            times.append(row[ti].strip())
    if bad:
        shown = ", ".join(str(b) for b in bad[:10])
        more = "" if len(bad) <= 10 else f" and {len(bad) - 10} more"
        raise DataError(
            f"{path.name}: unparseable value in column {header[vi]!r}"
            f" at line(s) {shown}{more}"
        )

    if ti is not None:
        try:
            t_vals: list = [float(t) for t in times]
        except ValueError:
            t_vals = times  # fall back to lexicographic order (ISO dates)
        for j in range(1, len(t_vals)):
            if not t_vals[j] > t_vals[j - 1]:
                raise DataError(
                    f"{path.name}: time column not strictly increasing"
                    f" at line {lines[j]}"
                )

    if len(values) < 4:
        raise DataError(f"{path.name}: need at least 4 data rows, got {len(values)}")
    return values


def _direct_returns(values, delta: float) -> ProxySeries:
    return ProxySeries(delta=delta, values=np.asarray(values, dtype=float) / delta)


def _load_series(o) -> ProxySeries:
    if not o.input:
        raise ConfigError("an --input CSV file is required")
    if o.delta is None:
        raise ConfigError("--delta is required; it is never inferred from timestamps")
    values = ingest_series(
        o.input, value_column=o.value_column, time_column=o.time_column
    )
    return o.proxy_mode(values, o.delta)


def _resolve_h(
    o, p: ProxySeries, fixed_key: str = "bandwidth", c_key: str = "rot_c"
) -> float:
    """A fixed bandwidth, or the rule of thumb at scale constant c.

    Giving both is an error naming the flags of the two keys, so the
    plug-in pilot's ``pilot_h``/``pilot_c`` report as --pilot-h/--pilot-c.
    """
    fixed, c = getattr(o, fixed_key), getattr(o, c_key)
    if fixed is not None and c is not None:
        raise ConfigError(f"give either {_flag(fixed_key)} or {_flag(c_key)}, not both")
    if fixed is not None:
        return fixed
    return rule_of_thumb(p, c=_DEFAULT_C if c is None else c).h


def _resolve_grid(o, p: ProxySeries) -> np.ndarray:
    if o.grid:
        return np.asarray(o.grid, dtype=float)
    lo = float(np.min(p.values)) if o.grid_min is None else o.grid_min
    hi = float(np.max(p.values)) if o.grid_max is None else o.grid_max
    if not hi > lo:
        raise ConfigError(f"grid range is empty: [{lo!r}, {hi!r}]")
    return np.linspace(lo, hi, o.grid_count)


# ---------------------------------------------------------------------------
# subcommands; each takes the checked options and the raw merged config


def _model_from(o) -> ModelSpec:
    return ModelSpec(**{m.key: getattr(o, m.key) for m in _MODEL})


def _cmd_simulate(o, cfg: dict) -> int:
    out = _out_dir(o)
    path = simulate_path(_model_from(o), o.T, o.n * o.substep, o.seed)
    if o.substep > 1:
        path = path.thin(o.substep)

    for name, columns, rows in (
        ("path.csv", ("t", "y"), zip(path.t, path.y)),
        ("state.csv", ("t", "x"), zip(path.t, path.x)),
        ("jumps.csv", ("time", "size"), zip(path.jump_times, path.jump_sizes)),
    ):
        _write_table(out / name, "simulate", cfg, o.seed, columns, rows)
    print(
        f"wrote {out / 'path.csv'} ({path.y.size} observations, delta={path.delta!r}),"
        f" state.csv, jumps.csv ({path.jump_times.size} jumps)"
    )
    return 0


def _cmd_estimate(o, cfg: dict) -> int:
    out = _out_dir(o)
    p = _load_series(o)
    triples = build_regression_triples(p)
    h = _resolve_h(o, p)
    grid = _resolve_grid(o, p)

    curves = [estimate_curve(triples, KernelSpec(fam, h), grid, o.target)
              for fam in o.family]
    columns = ["x"]
    for fam in o.family:
        columns += [f"{fam.value}_estimate", f"{fam.value}_slope", f"{fam.value}_flag"]

    rows = []
    for i, x in enumerate(grid):
        row = [x]
        for curve in curves:
            row += [curve.values[i], curve.slopes[i], curve.failures.get(i, "")]
        rows.append(row)
    curves_csv = out / "curves.csv"
    _write_table(curves_csv, "estimate", cfg, None, columns, rows)
    flagged = sum(len(curve.failures) for curve in curves)
    print(
        f"wrote {curves_csv} ({grid.size} grid points, h={h!r},"
        f" {flagged} flagged fits)"
    )
    return 0


def _cmd_ci(o, cfg: dict) -> int:
    out = _out_dir(o)
    p = _load_series(o)
    families = o.family
    h = _resolve_h(o, p)
    grid = _resolve_grid(o, p)

    bands = {}
    for fam in families:
        spec = KernelSpec(fam, h)
        bands[fam] = confidence_band(
            *band_companions(p, spec, grid, o.target),
            o.alpha, n=len(p), delta=p.delta, tau=o.tau, bias_correct=o.bias_correct,
        )

    columns = ["x"]
    for fam in families:
        v = fam.value
        columns += [f"{v}_center", f"{v}_lower", f"{v}_upper",
                    f"{v}_regime", f"{v}_clipped", f"{v}_flag"]
    both = len(families) == 2
    if both:
        columns.append("length_ratio_sym_over_asym")

    rows = []
    for i, x in enumerate(grid):
        row = [x]
        for fam in families:
            b = bands[fam]
            regime = b.regimes[i]
            label = regime.kind.value
            if regime.kappa is not None:
                label += f":{regime.kappa:g}"
            row += [
                b.center[i], b.lower[i], b.upper[i],
                label, bool(b.clipped[i]), b.gaps.get(i, ""),
            ]
        if both:
            # a gap's lower and upper are NaN
            sym, asym = (bands[f].upper[i] - bands[f].lower[i]
                         for f in (KernelFamily.GAUSSIAN, KernelFamily.GAMMA))
            row.append(length_ratio(sym, asym))
        rows.append(row)

    bands_csv = out / "bands.csv"
    _write_table(bands_csv, "ci", cfg, None, columns, rows)
    gaps = sum(len(bands[fam].gaps) for fam in families)
    print(f"wrote {bands_csv} ({grid.size} grid points, h={h!r}, {gaps} gaps)")
    return 0


def _cmd_bandwidth(o, cfg: dict) -> int:
    out = _out_dir(o)
    p = _load_series(o)
    if o.method == "rule-of-thumb":
        c = _DEFAULT_C if o.c is None else o.c
        choice = rule_of_thumb(p, c=c, T=o.horizon, regime=o.regime)
    elif o.method == "block-cv":
        choice = block_cv(p, h_grid=o.h_grid or None, k=o.k, family=o.family)
    else:
        if o.x is None:
            raise ConfigError("plugin selection needs an evaluation point --x")
        pilot_h = _resolve_h(o, p, "pilot_h", "pilot_c")
        spec = KernelSpec(KernelFamily.GAMMA, pilot_h)
        _, comp = band_companions(p, spec, [o.x], o.target)
        choice = asymptotic_h_opt(
            o.x, n=len(p), delta=p.delta,
            numerator=float(comp.variance_numerator[0]),
            p_hat=float(comp.density[0]), curvature=float(comp.curvature[0]),
            regime=classify_point(o.x, pilot_h, o.tau), target=o.target,
        )

    choice_csv = out / "bandwidth.csv"
    _write_table(
        choice_csv, "bandwidth", cfg, None,
        ("method", "h", "c", "k", "failures"),
        [(choice.method.value, choice.h, choice.c, choice.k, choice.failures)],
    )
    wrote = f"wrote {choice_csv} (method={choice.method.value}, h={choice.h!r})"
    if choice.candidates.size:
        score_csv = out / "score_curve.csv"
        _write_table(
            score_csv, "bandwidth", cfg, None,
            ("candidate_h", "objective"),
            zip(choice.candidates, choice.objectives),
        )
        wrote += f", score_curve.csv ({choice.candidates.size} candidates)"
    print(wrote)
    return 0


def _cmd_jumptest(o, cfg: dict) -> int:
    out = _out_dir(o)
    res = bs_jump_test(_load_series(o))
    if not res.reject:
        decision = "no jumps detected"
    elif res.statistic < 0:
        decision = "jumps detected"
    else:
        # bipower exceeds realized variance: adjacent returns are too alike
        # for the i.i.d. null, the signature of an integrated (smooth)
        # observable rather than of jumps
        decision = "returns smoother than the null; no jump evidence"
    payload = {
        "version": VERSION,
        "command": "jumptest",
        "config": json.loads(_config_echo(cfg)),
        "statistic": res.statistic,
        "realized_variance": res.realized_variance,
        "bipower_variation": res.bipower_variation,
        "quadpower": res.quadpower,
        "n": res.n,
        "critical_value": BS_CRITICAL,
        "reject": res.reject,
        "decision": decision,
    }
    report = out / "jumptest.json"
    report.write_text(json.dumps(payload, indent=2, sort_keys=True))
    print(f"BS statistic: {res.statistic:.4f}  ({decision} at the 5% level)")
    print(f"realized variance: {res.realized_variance:.6g}")
    print(f"bipower variation: {res.bipower_variation:.6g}")
    print(f"returns used: {res.n}")
    print(f"wrote {report}")
    return 0


def _cmd_mc_table(o, cfg: dict) -> int:
    out = _out_dir(o)
    if o.experiment in ("coverage", "adjusted-length") and not o.eval_points:
        raise ConfigError(f"the {o.experiment} experiment needs --eval-points")
    if o.experiment == "adjusted-length" and o.replicates < MIN_ADJUSTED_REPLICATES:
        raise ConfigError(
            f"replicates (--replicates) must be at least {MIN_ADJUSTED_REPLICATES}"
            f" for the adjusted-length experiment, got {o.replicates}"
        )
    settings = tuple(BandwidthSetting(fixed=h) for h in o.fixed_h or ())
    settings += tuple(BandwidthSetting(rot_c=c) for c in o.rot_c or ())
    # an McConfig option not given leaves the field's default
    given = {m.key: getattr(o, m.key) for m in _MC if getattr(o, m.key) is not None}
    try:
        mc_cfg = McConfig(
            model=_model_from(o), families=o.family, target=o.target,
            bandwidths=settings or McConfig.bandwidths, **given,
        )
    except ValueError as exc:  # the checks between McConfig's fields
        raise ConfigError(str(exc)) from None

    runner = {
        "mse": run_mse_experiment,
        "coverage": run_coverage_experiment,
        "adjusted-length": run_adjusted_length_experiment,
    }[o.experiment]
    report = runner(mc_cfg)
    stem = f"mc_{o.experiment.replace('-', '_')}"
    csv_path = out / f"{stem}.csv"
    report.to_csv(csv_path)
    report.to_json(out / f"{stem}.json")
    print(f"wrote {csv_path} and {stem}.json ({len(report.rows)} cells)")
    return 0


# ---------------------------------------------------------------------------
# the option table


def _flag(key: str) -> str:
    return f"--{key.replace('_', '-')}"


def _instance(kind: type, need: str):
    """The check that a value is a ``kind``: text, or an on/off switch."""

    def check(name: str, v):
        if not isinstance(v, kind):
            raise ValueError(f"{name} must be {need}, got {v!r}")
        return v

    return check


def _listed(check):
    """``check(name, values)`` over a JSON list or comma-separated text,
    each piece read by ``_number``; "" and "none" leave the option unset."""

    def parse(name: str, v):
        if v in ("", "none"):
            return None
        if isinstance(v, str):
            v = [_number(s) for s in v.split(",") if s.strip()]
        if not isinstance(v, list):
            raise ValueError(f"{name} must be a list of numbers, got {v!r}")
        return check(name, v)

    return parse


@dataclass(frozen=True)
class _Opt:
    """One option: the ``--config`` key ``key`` and its flag ``--key``.

    ``kind`` is the type flag text is read as (float, int or str; None
    marks an on/off flag).  ``value`` checks the value, from a flag and
    from a file alike: a name among ``choices`` maps to what commands
    read, any other value goes through ``parse(name, v)``, which raises
    ``ValueError`` naming ``name``.  An option without a default reads
    None when not given.
    """

    key: str
    default: object = None
    parse: Callable[[str, object], object] = _instance(str, "a string")
    choices: dict | None = None
    kind: type | None = str
    help: str | None = None

    def value(self, v):
        if v is None and self.default is None:
            return None
        name = f"{self.key} ({_flag(self.key)})"
        if self.choices is not None:
            if isinstance(v, str) and v in self.choices:
                return self.choices[v]
            need = ", ".join(self.choices)
            raise ConfigError(f"{name} must be one of {need}, got {v!r}")
        try:
            return self.parse(name, v)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


def _num(key, default=None, cast=float, rule=FINITE, help=None) -> _Opt:
    """A number option, checked by ``errors.checked`` against ``rule``."""
    check = functools.partial(checked, rule=rule, integer=cast is int)
    return _Opt(key, default, check, kind=cast, help=help)


def _list(key, rule=FINITE, distinct=False, help=None) -> _Opt:
    """A list option, checked by ``errors.checked_list``."""
    check = functools.partial(checked_list, rule=rule, distinct=distinct)
    return _Opt(key, parse=_listed(check), help=help)


def _options(*opts: _Opt) -> dict[str, _Opt]:
    """A subcommand's options by key; a later entry overrides an earlier one."""
    return {o.key: o for o in (_OUT, *opts)}


_OUT = _Opt("out", ".", help="output directory (default: current)")
_PROXY_MODE = _Opt(
    "proxy_mode", "levels",
    choices={
        "levels": build_proxy,
        "log-prices": build_log_proxy,
        "direct-returns": _direct_returns,
    },
    help="how the value column maps to the latent-state proxy",
)
_IO = (
    _Opt("input", help="input CSV file with a header row"),
    _num("delta", rule=POSITIVE, help="sampling interval (required; never inferred)"),
    _PROXY_MODE,
    _Opt("value_column",
         help="value column name (default: second column, or the only one)"),
    _Opt("time_column",
         help="time column name, or 'none' (default: first column when several)"),
)
_T = _num("T", 10.0, rule=POSITIVE, help="time horizon")
_N = _num("n", 1000, int, at_least(1), help="number of observation steps")


def _field_options(cls, defaults: dict, helps: dict) -> tuple[_Opt, ...]:
    """An option per field of dataclass ``cls`` that declares a ``check``
    (``errors.check_fields``), checked by it: flag text is read as the
    field's type, a tuple field as a list, which is unset by default."""
    opts = []
    for f in fields(cls):
        if "check" in f.metadata:
            check, kind = f.metadata["check"], {"int": int, "float": float}.get(f.type)
            default = defaults.get(f.name, f.default) if kind else None
            parse = check if kind else _listed(check)
            opts.append(_Opt(f.name, default, parse, kind=kind or str,
                             help=helps.get(f.name)))
    return tuple(opts)


_MODEL = _field_options(ModelSpec, asdict(baseline_model()), {})
_MC = _field_options(
    McConfig, {"T": _T.default, "n": _N.default, "replicates": 100}, {
        "T": _T.help,
        "n": _N.help,
        "eval_points": "evaluation points, comma separated",
        "mse_trim": "percentile pair like 5,95; default none (full range)",
    },
)
_FAMILY = _Opt("family", "both", choices={
    "gamma": (KernelFamily.GAMMA,),
    "gaussian": (KernelFamily.GAUSSIAN,),
    "both": (KernelFamily.GAMMA, KernelFamily.GAUSSIAN),
})
# bands, the plug-in selector and mc cover the targets with limit theory
_TARGET = _Opt("target", "drift", choices={
    name: t for name, t in _TARGETS.items() if t in NUMERATOR_TARGET
})
_BANDWIDTH = _num("bandwidth", rule=POSITIVE, help="fixed bandwidth h")
_ROT_C = _num(
    "rot_c", rule=POSITIVE,
    help=f"rule-of-thumb scale constant (default {_DEFAULT_C} if no bandwidth)",
)
_GRID = (
    _list("grid", help="explicit evaluation points, comma separated"),
    _num("grid_min"),
    _num("grid_max"),
    _num("grid_count", 50, int, at_least(2)),
)
_ALPHA = _num("alpha", 0.05, rule=OPEN_UNIT)
_TAU = _num("tau", DEFAULT_REGIME_THRESHOLD, rule=POSITIVE,
            help="interior/boundary threshold on x/h")

# subcommand -> (function, help, options)
_COMMANDS = {
    "simulate": (_cmd_simulate, "simulate a path and write CSV artifacts", _options(
        _T, _N, _num("seed", 0, int, at_least(0)),
        _num("substep", 1, int, at_least(1),
             help="internal Euler substeps per observation (default 1)"),
        *_MODEL,
    )),
    "estimate": (_cmd_estimate, "fit drift/variance/moment curves", _options(
        *_IO, replace(_TARGET, choices=_TARGETS), _FAMILY, _BANDWIDTH, _ROT_C, *_GRID,
    )),
    "bandwidth": (_cmd_bandwidth, "select a bandwidth and dump the score curve", _options(
        *_IO,
        _Opt("method", "block-cv",
             choices={m: m for m in ("rule-of-thumb", "block-cv", "plugin")}),
        _num("c", rule=POSITIVE, help="rule-of-thumb scale constant"),
        _num("horizon", rule=POSITIVE,
             help="time span T for the rule of thumb (default delta*n)"),
        _Opt("regime", "interior", choices={r.value: r for r in RegimeKind}),
        _list("h_grid", POSITIVE, help="candidate bandwidths, comma separated"),
        _num("k", cast=int, rule=at_least(1), help="cross-validation block half-width"),
        _num("x", rule=NONNEGATIVE, help="evaluation point for the plug-in method"),
        _num("pilot_h", rule=POSITIVE),
        _num("pilot_c", rule=POSITIVE),
        _TARGET,
        _TAU,
        # block CV selects for one kernel family
        _Opt("family", "gamma", choices={f.value: f for f in KernelFamily},
             help="kernel family for block-cv"),
    )),
    "ci": (_cmd_ci, "pointwise asymptotic confidence bands", _options(
        *_IO, _TARGET, _FAMILY, _BANDWIDTH, _ROT_C, _ALPHA, _TAU,
        _Opt("bias_correct", True, _instance(bool, "true or false"), kind=None),
        *_GRID,
    )),
    "jumptest": (_cmd_jumptest, "bipower-ratio jump test on a return series", _options(
        *_IO, replace(_PROXY_MODE, default="log-prices"),
    )),
    "mc-table": (_cmd_mc_table, "Monte Carlo experiment tables", _options(
        _Opt("experiment", "mse",
             choices={e: e for e in ("mse", "coverage", "adjusted-length")}),
        _FAMILY,
        _TARGET,
        _list("fixed_h", POSITIVE, True, help="fixed bandwidths, comma separated"),
        _list("rot_c", POSITIVE, True, help="rule-of-thumb constants, comma separated"),
        *_MC,
        *_MODEL,
    )),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jdsmooth",
        description="Drift and variance estimation for integrated jump-diffusions.",
    )
    parser.add_argument("--version", action="version", version=f"jdsmooth {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, about, options) in _COMMANDS.items():
        sp = sub.add_parser(command, help=about)
        sp.add_argument("--config", help="JSON file of option values; flags win")
        for o in options.values():
            if o.kind is None:
                sp.add_argument(_flag(o.key), dest=o.key, help=o.help,
                                action=argparse.BooleanOptionalAction)
            else:
                shown = "{" + ",".join(o.choices) + "}" if o.choices else None
                sp.add_argument(_flag(o.key), dest=o.key, help=o.help, metavar=shown)
    return parser


_NEGATIVE_VALUE = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


def _glue_negative_values(argv: list[str]) -> list[str]:
    """``--flag -0.1,0.1`` as ``--flag=-0.1,0.1``: argparse takes a token
    that starts with "-" for an option unless it is a plain negative number,
    so the spaced form of a list such as ``--grid -0.1,0.1``, or of
    ``--c -inf``, would fail before the option's check."""
    glued = []
    for token in argv:
        flag = glued[-1] if glued else ""
        if flag.startswith("--") and "=" not in flag and _NEGATIVE_VALUE.match(token):
            glued[-1] += "=" + token
        else:
            glued.append(token)
    return glued


def _merge_config(command: str, provided: dict) -> tuple[dict, argparse.Namespace]:
    """Defaults, beneath the ``--config`` file, beneath the flags given.

    Returns the merged values as given, which artifact headers echo, and
    every option's checked value.
    """
    options = _COMMANDS[command][2]
    cfg = {key: o.default for key, o in options.items() if o.default is not None}
    config_path = provided.pop("config", None)
    if config_path is not None:
        try:
            loaded = json.loads(Path(config_path).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        for key in loaded:
            if key not in options:
                raise ConfigError(f"unknown config key {key!r}")
        cfg.update(loaded)
    for key, text in provided.items():
        if text is not None:
            kind = options[key].kind
            cfg[key] = _number(text, kind) if kind in (int, float) else text
    checked = {key: o.value(cfg.get(key)) for key, o in options.items()}
    return cfg, argparse.Namespace(**checked)


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parser.parse_args(_glue_negative_values(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    provided = vars(args)
    command = provided.pop("command")
    try:
        cfg, opts = _merge_config(command, provided)
        return _COMMANDS[command][0](opts, cfg)
    except JdsmoothError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
