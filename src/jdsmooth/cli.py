"""Command line surface: simulate, estimate, bandwidth, ci, jumptest, mc-table.

Input series arrive as CSV with a header row; the sampling interval delta
is always given explicitly, never inferred from timestamps, because the
calendar convention behind a time column (five-minute bars counted in
days, say) is not recoverable from the data.  The observed column can be
levels of the integrated series, prices to be logged, or per-interval
returns; exactly one of those proxy modes applies per run.

Every artifact is plain CSV or JSON carrying comment/header lines with
the package version, the fully merged configuration, and the seed, so a
result file documents how to regenerate itself.  Numbers are written in
shortest round-trip form, which makes simulate followed by estimate on
the written file bit-identical to the in-memory pipeline.  Failures at
individual grid points become per-point flags inside the output; only
configuration and data problems abort a run.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from ._version import VERSION
from .bandwidth import (
    BandwidthMethod,
    asymptotic_h_opt,
    block_cv,
    default_h_grid,
    rule_of_thumb,
)
from .errors import ConfigError, DataError, EstimationError, JdsmoothError
from .inference import band_companions, bs_jump_test, confidence_band
from .kernels import (
    DEFAULT_REGIME_THRESHOLD,
    KernelFamily,
    KernelSpec,
    RegimeKind,
    classify_point,
)
from .locallinear import Target, estimate_curve
from .mc import (
    BandwidthSetting,
    McConfig,
    run_adjusted_length_experiment,
    run_coverage_experiment,
    run_mse_experiment,
)
from .proxy import ProxySeries, build_log_proxy, build_proxy, build_regression_triples
from .simulate import ModelSpec, simulate_path

_MODEL_FIELDS = (
    ("drift_intercept", 1.0),
    ("drift_slope", -10.0),
    ("diffusion_const", 0.1),
    ("diffusion_quad", 0.1),
    ("jump_total", 20.0),
    ("jump_size_std", 0.036),
    ("jump_size_mean", 0.0),
    ("x0", 0.1),
    ("y0", 100.0),
)

_TARGETS = {
    "drift": Target.DRIFT,
    "variance": Target.COND_VARIANCE,
    "m4": Target.FOURTH_MOMENT,
    "m6": Target.SIXTH_MOMENT,
}


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


def _as_float(cfg: dict, key: str) -> float:
    try:
        return float(cfg[key])
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a number, got {cfg[key]!r}") from None


def _as_int(cfg: dict, key: str) -> int:
    v = cfg[key]
    try:
        i = int(v)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be an integer, got {v!r}") from None
    if isinstance(v, float) and v != i:
        raise ConfigError(f"{key} must be an integer, got {v!r}")
    return i


def _float_list(value, key: str) -> tuple[float, ...]:
    """Accept a comma-separated string or a list of numbers."""
    if value is None:
        return ()
    if isinstance(value, str):
        parts = [s for s in (t.strip() for t in value.split(",")) if s]
    elif isinstance(value, (list, tuple)):
        parts = list(value)
    else:
        raise ConfigError(f"{key} must be a list or comma-separated string")
    try:
        return tuple(float(v) for v in parts)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} contains a non-numeric entry: {value!r}") from None


def _families(name: str) -> tuple[KernelFamily, ...]:
    table = {
        "gamma": (KernelFamily.GAMMA,),
        "gaussian": (KernelFamily.GAUSSIAN,),
        "both": (KernelFamily.GAMMA, KernelFamily.GAUSSIAN),
    }
    try:
        return table[name]
    except KeyError:
        raise ConfigError(f"family must be gamma, gaussian or both, got {name!r}") from None


def _config_echo(cfg: dict) -> str:
    return json.dumps(cfg, sort_keys=True, default=str)


def _write_header(fh, command: str, cfg: dict, seed) -> None:
    fh.write(f"# jdsmooth {VERSION}\n")
    fh.write(f"# command: {command}\n")
    fh.write(f"# config: {_config_echo(cfg)}\n")
    fh.write(f"# seed: {seed if seed is not None else 'none'}\n")


def _write_table(path: Path, command: str, cfg: dict, seed, columns, rows) -> None:
    with path.open("w", newline="") as fh:
        _write_header(fh, command, cfg, seed)
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg.get("out") or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# input handling


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
        try:
            return header.index(name)
        except ValueError:
            raise DataError(
                f"{role} column {name!r} not found in header {header}"
            ) from None

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
    for j, (line, row) in enumerate(data):
        lines.append(line)
        if len(row) <= vi or (ti is not None and len(row) <= ti):
            bad.append(line)
            continue
        try:
            v = float(row[vi])
        except ValueError:
            bad.append(line)
            continue
        if not math.isfinite(v):
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


def _load_series(cfg: dict) -> ProxySeries:
    if not cfg.get("input"):
        raise ConfigError("an --input CSV file is required")
    if cfg.get("delta") is None:
        raise ConfigError("--delta is required; it is never inferred from timestamps")
    delta = _as_float(cfg, "delta")
    if not (math.isfinite(delta) and delta > 0):
        raise ConfigError(f"delta must be positive, got {delta!r}")
    values = ingest_series(
        cfg["input"],
        value_column=cfg.get("value_column"),
        time_column=cfg.get("time_column"),
    )
    mode = cfg.get("proxy_mode", "levels")
    if mode == "levels":
        return build_proxy(values, delta)
    if mode == "log-prices":
        return build_log_proxy(values, delta)
    if mode == "direct-returns":
        return ProxySeries(delta=delta, values=np.asarray(values, dtype=float) / delta)
    raise ConfigError(
        f"proxy mode must be levels, log-prices or direct-returns, got {mode!r}"
    )


def _resolve_h(cfg: dict, p: ProxySeries) -> float:
    fixed = cfg.get("bandwidth")
    c = cfg.get("rot_c")
    if fixed is not None and c is not None:
        raise ConfigError("give either --bandwidth or --rot-c, not both")
    if fixed is not None:
        h = float(fixed)
        if not (math.isfinite(h) and h > 0):
            raise ConfigError(f"bandwidth must be positive, got {fixed!r}")
        return h
    c = 2.0 if c is None else _as_float(cfg, "rot_c")
    try:
        return rule_of_thumb(p, c=c, T=p.delta * len(p)).h
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _resolve_grid(cfg: dict, p: ProxySeries) -> np.ndarray:
    explicit = _float_list(cfg.get("grid"), "grid")
    if explicit:
        return np.asarray(explicit, dtype=float)
    count = _as_int(cfg, "grid_count")
    if count < 2:
        raise ConfigError("grid-count must be at least 2")
    lo = cfg.get("grid_min")
    hi = cfg.get("grid_max")
    lo = float(np.min(p.values)) if lo is None else float(lo)
    hi = float(np.max(p.values)) if hi is None else float(hi)
    if not hi > lo:
        raise ConfigError(f"grid range is empty: [{lo!r}, {hi!r}]")
    return np.linspace(lo, hi, count)


# ---------------------------------------------------------------------------
# subcommands


def _model_from(cfg: dict) -> ModelSpec:
    kwargs = {name: _as_float(cfg, name) for name, _ in _MODEL_FIELDS}
    try:
        return ModelSpec(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _cmd_simulate(cfg: dict) -> int:
    out = _out_dir(cfg)
    model = _model_from(cfg)
    T = _as_float(cfg, "T")
    n = _as_int(cfg, "n")
    seed = _as_int(cfg, "seed")
    substep = _as_int(cfg, "substep")
    if substep < 1:
        raise ConfigError("substep must be at least 1")
    try:
        path = simulate_path(model, T, n * substep, seed)
        if substep > 1:
            path = path.thin(substep)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    t = path.t
    path_csv = out / "path.csv"
    _write_table(
        path_csv, "simulate", cfg, seed, ("t", "y"),
        zip(t, path.y),
    )
    _write_table(
        out / "state.csv", "simulate", cfg, seed, ("t", "x"),
        zip(t, path.x),
    )
    _write_table(
        out / "jumps.csv", "simulate", cfg, seed, ("time", "size"),
        zip(path.jump_times, path.jump_sizes),
    )
    print(
        f"wrote {path_csv} ({path.y.size} observations, delta={path.delta!r}),"
        f" state.csv, jumps.csv ({path.jump_times.size} jumps)"
    )
    return 0


def _cmd_estimate(cfg: dict) -> int:
    out = _out_dir(cfg)
    p = _load_series(cfg)
    triples = build_regression_triples(p)
    families = _families(cfg["family"])
    target = _TARGETS[cfg["target"]]
    h = _resolve_h(cfg, p)
    grid = _resolve_grid(cfg, p)

    columns = ["x"]
    series = {}
    for fam in families:
        spec = KernelSpec(fam, h)
        try:
            curve = estimate_curve(triples, spec, grid, target)
            values, slopes, failures = curve.values, curve.slopes, curve.failures
        except EstimationError as exc:
            values = np.full(grid.size, np.nan)
            slopes = np.full(grid.size, np.nan)
            failures = {i: str(exc) for i in range(grid.size)}
        series[fam] = (values, slopes, failures)
        columns += [f"{fam.value}_estimate", f"{fam.value}_slope", f"{fam.value}_flag"]

    rows = []
    for i, x in enumerate(grid):
        row = [x]
        for fam in families:
            values, slopes, failures = series[fam]
            row += [values[i], slopes[i], failures.get(i, "")]
        rows.append(row)
    curves_csv = out / "curves.csv"
    _write_table(curves_csv, "estimate", cfg, None, columns, rows)
    flagged = sum(len(s[2]) for s in series.values())
    print(
        f"wrote {curves_csv} ({grid.size} grid points, h={h!r},"
        f" {flagged} flagged fits)"
    )
    return 0


def _cmd_ci(cfg: dict) -> int:
    out = _out_dir(cfg)
    p = _load_series(cfg)
    triples = build_regression_triples(p)
    families = _families(cfg["family"])
    target = _TARGETS[cfg["target"]]
    if target not in (Target.DRIFT, Target.COND_VARIANCE):
        raise ConfigError("confidence bands cover the drift and variance targets")
    h = _resolve_h(cfg, p)
    grid = _resolve_grid(cfg, p)
    alpha = _as_float(cfg, "alpha")
    tau = _as_float(cfg, "tau")
    bias_correct = bool(cfg["bias_correct"])

    bands = {}
    for fam in families:
        spec = KernelSpec(fam, h)
        bands[fam] = confidence_band(
            estimate_curve(triples, spec, grid, target),
            band_companions(p, triples, spec, grid, target),
            alpha, n=len(p), delta=p.delta, tau=tau, bias_correct=bias_correct,
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
            bg = bands[KernelFamily.GAMMA]
            bs = bands[KernelFamily.GAUSSIAN]
            gamma_len = bg.upper[i] - bg.lower[i]
            if i in bg.gaps or not math.isfinite(gamma_len) or gamma_len <= 0:
                row.append(math.nan)
            elif i in bs.gaps:
                # the symmetric fit produced no usable band here (for the
                # variance target typically a negative moment estimate)
                row.append(0.0)
            else:
                row.append((bs.upper[i] - bs.lower[i]) / gamma_len)
        rows.append(row)

    bands_csv = out / "bands.csv"
    _write_table(bands_csv, "ci", cfg, None, columns, rows)
    gaps = sum(len(bands[fam].gaps) for fam in families)
    print(f"wrote {bands_csv} ({grid.size} grid points, h={h!r}, {gaps} gaps)")
    return 0


def _cmd_bandwidth(cfg: dict) -> int:
    out = _out_dir(cfg)
    p = _load_series(cfg)
    method = cfg["method"]
    if method == "rule-of-thumb":
        c = 2.0 if cfg.get("c") is None else _as_float(cfg, "c")
        span = cfg.get("horizon")
        span = p.delta * len(p) if span is None else float(span)
        regime = (
            RegimeKind.BOUNDARY if cfg.get("regime") == "boundary"
            else RegimeKind.INTERIOR
        )
        try:
            choice = rule_of_thumb(p, c=c, T=span, regime=regime)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    elif method == "block-cv":
        grid_vals = _float_list(cfg.get("h_grid"), "h_grid")
        h_grid = np.asarray(grid_vals) if grid_vals else default_h_grid(p)
        k = cfg.get("k")
        family = _families(cfg.get("family") or "gamma")[0]
        try:
            choice = block_cv(p, h_grid=h_grid, k=None if k is None else int(k),
                              family=family)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    elif method == "plugin":
        if cfg.get("x") is None:
            raise ConfigError("plugin selection needs an evaluation point --x")
        x = _as_float(cfg, "x")
        pilot_cfg = dict(cfg, bandwidth=cfg.get("pilot_h"), rot_c=cfg.get("pilot_c"))
        pilot_h = _resolve_h(pilot_cfg, p)
        spec = KernelSpec(KernelFamily.GAMMA, pilot_h)
        triples = build_regression_triples(p)
        target = _TARGETS[cfg["target"]]
        try:
            comp = band_companions(p, triples, spec, [x], target)
            regime = classify_point(x, pilot_h, _as_float(cfg, "tau"))
            choice = asymptotic_h_opt(
                x, n=len(p), delta=p.delta,
                m_hat=float(comp.variance_numerator[0]),
                p_hat=float(comp.density[0]), curvature=float(comp.curvature[0]),
                regime=regime,
            )
        except (JdsmoothError, ValueError) as exc:
            raise JdsmoothError(f"plug-in selection failed at x={x:g}: {exc}")
    else:
        raise ConfigError(f"unknown bandwidth method {method!r}")

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


def _cmd_jumptest(cfg: dict) -> int:
    out = _out_dir(cfg)
    p = _load_series(cfg)
    try:
        res = bs_jump_test(p)
    except ValueError as exc:
        raise DataError(str(exc)) from None
    if res.statistic < -1.96:
        decision = "jumps detected"
    elif res.statistic > 1.96:
        # bipower exceeds realized variance: adjacent returns are too alike
        # for the i.i.d. null, the signature of an integrated (smooth)
        # observable rather than of jumps
        decision = "returns smoother than the null; no jump evidence"
    else:
        decision = "no jumps detected"
    payload = {
        "version": VERSION,
        "command": "jumptest",
        "config": json.loads(_config_echo(cfg)),
        "statistic": res.statistic,
        "realized_variance": res.realized_variance,
        "bipower_variation": res.bipower_variation,
        "quadpower": res.quadpower,
        "n": res.n,
        "critical_value": 1.96,
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


def _mc_settings(cfg: dict) -> tuple[BandwidthSetting, ...]:
    fixed = _float_list(cfg.get("fixed_h"), "fixed_h")
    rots = _float_list(cfg.get("rot_c"), "rot_c")
    settings = tuple(BandwidthSetting(fixed=h) for h in fixed)
    settings += tuple(BandwidthSetting(rot_c=c) for c in rots)
    if not settings:
        settings = (BandwidthSetting(rot_c=2.8),)
    return settings


def _cmd_mc_table(cfg: dict) -> int:
    out = _out_dir(cfg)
    experiment = cfg["experiment"]
    eval_points = _float_list(cfg.get("eval_points"), "eval_points")
    if experiment in ("coverage", "adjusted-length") and not eval_points:
        raise ConfigError(f"the {experiment} experiment needs --eval-points")
    trim_raw = cfg.get("mse_trim")
    if trim_raw in (None, "", "none"):
        trim = None
    else:
        trim = _float_list(trim_raw, "mse_trim")
        if len(trim) != 2:
            raise ConfigError("mse-trim needs two percentiles, e.g. 5,95")
    target = _TARGETS[cfg["target"]]
    if target not in (Target.DRIFT, Target.COND_VARIANCE):
        raise ConfigError("mc experiments cover the drift and variance targets")
    try:
        mc_cfg = McConfig(
            model=_model_from(cfg),
            T=_as_float(cfg, "T"),
            n=_as_int(cfg, "n"),
            replicates=_as_int(cfg, "replicates"),
            base_seed=_as_int(cfg, "base_seed"),
            families=_families(cfg["family"]),
            bandwidths=_mc_settings(cfg),
            eval_points=eval_points,
            target=target,
            alpha=_as_float(cfg, "alpha"),
            tau=_as_float(cfg, "tau"),
            workers=_as_int(cfg, "workers"),
            mse_grid_size=_as_int(cfg, "mse_grid_size"),
            mse_trim=trim,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    runner = {
        "mse": run_mse_experiment,
        "coverage": run_coverage_experiment,
        "adjusted-length": run_adjusted_length_experiment,
    }[experiment]
    report = runner(mc_cfg)
    stem = f"mc_{experiment.replace('-', '_')}"
    csv_path = out / f"{stem}.csv"
    report.to_csv(csv_path)
    report.to_json(out / f"{stem}.json")
    print(f"wrote {csv_path} and {stem}.json ({len(report.rows)} cells)")
    return 0


# ---------------------------------------------------------------------------
# argument plumbing

_COMMANDS = {
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "bandwidth": _cmd_bandwidth,
    "ci": _cmd_ci,
    "jumptest": _cmd_jumptest,
    "mc-table": _cmd_mc_table,
}

_DEFAULTS: dict[str, dict] = {
    "simulate": {
        "out": ".", "T": 10.0, "n": 1000, "seed": 0, "substep": 1,
        **{name: default for name, default in _MODEL_FIELDS},
    },
    "estimate": {
        "out": ".", "proxy_mode": "levels", "family": "both", "target": "drift",
        "grid_count": 50,
    },
    "bandwidth": {
        "out": ".", "proxy_mode": "levels", "method": "block-cv",
        "family": "gamma", "target": "drift", "tau": DEFAULT_REGIME_THRESHOLD,
        "regime": "interior",
    },
    "ci": {
        "out": ".", "proxy_mode": "levels", "family": "both", "target": "drift",
        "grid_count": 50, "alpha": 0.05, "tau": DEFAULT_REGIME_THRESHOLD,
        "bias_correct": True,
    },
    "jumptest": {"out": ".", "proxy_mode": "log-prices"},
    "mc-table": {
        "out": ".", "experiment": "mse", "T": 10.0, "n": 1000, "replicates": 100,
        "base_seed": 0, "family": "both", "target": "drift", "alpha": 0.05,
        "tau": DEFAULT_REGIME_THRESHOLD, "workers": 1, "mse_grid_size": 50,
        **{name: default for name, default in _MODEL_FIELDS},
    },
}


def _add_io_flags(sp) -> None:
    sp.add_argument("--input", help="input CSV file with a header row")
    sp.add_argument("--delta", type=float,
                    help="sampling interval (required; never inferred)")
    sp.add_argument("--proxy-mode", choices=("levels", "log-prices", "direct-returns"),
                    dest="proxy_mode",
                    help="how the value column maps to the latent-state proxy")
    sp.add_argument("--value-column", dest="value_column",
                    help="value column name (default: second column, or the only one)")
    sp.add_argument("--time-column", dest="time_column",
                    help="time column name, or 'none' (default: first column when several)")


def _add_model_flags(sp) -> None:
    for name, _ in _MODEL_FIELDS:
        sp.add_argument(f"--{name.replace('_', '-')}", dest=name, type=float)


def _add_common(sp) -> None:
    sp.add_argument("--config", help="JSON file of option defaults; flags win")
    sp.add_argument("--out", help="output directory (default: current)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jdsmooth",
        description="Drift and variance estimation for integrated jump-diffusions.",
    )
    parser.add_argument("--version", action="version", version=f"jdsmooth {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="simulate a path and write CSV artifacts")
    _add_common(sp)
    sp.add_argument("--T", type=float, help="time horizon")
    sp.add_argument("--n", type=int, help="number of observation steps")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--substep", type=int,
                    help="internal Euler substeps per observation (default 1)")
    _add_model_flags(sp)

    sp = sub.add_parser("estimate", help="fit drift/variance/moment curves")
    _add_common(sp)
    _add_io_flags(sp)
    sp.add_argument("--target", choices=tuple(_TARGETS))
    sp.add_argument("--family", choices=("gamma", "gaussian", "both"))
    sp.add_argument("--bandwidth", type=float, help="fixed bandwidth h")
    sp.add_argument("--rot-c", dest="rot_c", type=float,
                    help="rule-of-thumb scale constant (default 2.0 if no bandwidth)")
    sp.add_argument("--grid", help="explicit evaluation points, comma separated")
    sp.add_argument("--grid-min", dest="grid_min", type=float)
    sp.add_argument("--grid-max", dest="grid_max", type=float)
    sp.add_argument("--grid-count", dest="grid_count", type=int)

    sp = sub.add_parser("bandwidth", help="select a bandwidth and dump the score curve")
    _add_common(sp)
    _add_io_flags(sp)
    sp.add_argument("--method", choices=("rule-of-thumb", "block-cv", "plugin"))
    sp.add_argument("--c", type=float, help="rule-of-thumb scale constant")
    sp.add_argument("--horizon", type=float,
                    help="time span T for the rule of thumb (default delta*n)")
    sp.add_argument("--regime", choices=("interior", "boundary"))
    sp.add_argument("--h-grid", dest="h_grid", help="candidate bandwidths, comma separated")
    sp.add_argument("--k", type=int, help="cross-validation block half-width")
    sp.add_argument("--x", type=float, help="evaluation point for the plug-in method")
    sp.add_argument("--pilot-h", dest="pilot_h", type=float)
    sp.add_argument("--pilot-c", dest="pilot_c", type=float)
    sp.add_argument("--target", choices=("drift", "variance"))
    sp.add_argument("--tau", type=float, help="interior/boundary threshold on x/h")

    sp = sub.add_parser("ci", help="pointwise asymptotic confidence bands")
    _add_common(sp)
    _add_io_flags(sp)
    sp.add_argument("--target", choices=("drift", "variance"))
    sp.add_argument("--family", choices=("gamma", "gaussian", "both"))
    sp.add_argument("--bandwidth", type=float)
    sp.add_argument("--rot-c", dest="rot_c", type=float)
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--tau", type=float)
    sp.add_argument("--bias-correct", dest="bias_correct",
                    action=argparse.BooleanOptionalAction)
    sp.add_argument("--grid", help="explicit evaluation points, comma separated")
    sp.add_argument("--grid-min", dest="grid_min", type=float)
    sp.add_argument("--grid-max", dest="grid_max", type=float)
    sp.add_argument("--grid-count", dest="grid_count", type=int)

    sp = sub.add_parser("jumptest", help="bipower-ratio jump test on a return series")
    _add_common(sp)
    _add_io_flags(sp)

    sp = sub.add_parser("mc-table", help="Monte Carlo experiment tables")
    _add_common(sp)
    sp.add_argument("--experiment", choices=("mse", "coverage", "adjusted-length"))
    sp.add_argument("--T", type=float)
    sp.add_argument("--n", type=int)
    sp.add_argument("--replicates", type=int)
    sp.add_argument("--base-seed", dest="base_seed", type=int)
    sp.add_argument("--workers", type=int)
    sp.add_argument("--family", choices=("gamma", "gaussian", "both"))
    sp.add_argument("--target", choices=("drift", "variance"))
    sp.add_argument("--fixed-h", dest="fixed_h", help="fixed bandwidths, comma separated")
    sp.add_argument("--rot-c", dest="rot_c", help="rule-of-thumb constants, comma separated")
    sp.add_argument("--eval-points", dest="eval_points",
                    help="evaluation points, comma separated")
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--tau", type=float)
    sp.add_argument("--mse-grid-size", dest="mse_grid_size", type=int)
    sp.add_argument("--mse-trim", dest="mse_trim",
                    help="percentile pair like 5,95; default none (full range)")
    _add_model_flags(sp)

    return parser


def _merge_config(command: str, provided: dict) -> dict:
    defaults = dict(_DEFAULTS[command])
    cfg = dict(defaults)
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
        # the legal keys are exactly this subcommand's flags and defaults
        known = set(defaults) | set(provided)
        for key, value in loaded.items():
            if key not in known:
                raise ConfigError(f"unknown config key {key!r}")
            cfg[key] = value
    cfg.update({k: v for k, v in provided.items() if v is not None})
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    provided = vars(args)
    command = provided.pop("command")
    try:
        cfg = _merge_config(command, provided)
        return _COMMANDS[command](cfg)
    except JdsmoothError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
