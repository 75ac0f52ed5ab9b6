"""Monte Carlo harness for the estimator's sampling behavior.

Three experiments over replicated simulated paths:

* mse: fit drift or conditional-variance curves over a grid covering the
  realized proxy range and score them against the model truth;
* coverage: build pointwise asymptotic confidence bands at chosen
  evaluation points and record empirical coverage, bias, variance, and
  band lengths for each kernel family;
* adjusted_length: replace the normal critical values by the empirical
  quantiles of the studentized errors and compare the recalibrated band
  lengths across kernel families.

The experiments share one replicate loop.  It runs in the calling
thread, simulates each path once and hands every (bandwidth, family)
pair to the experiment's fit function; one pass then groups the records
into cells by (bandwidth label, family, x), in the config's order.  No
two cells share a key: families, points and bandwidth labels must not
repeat.  Replicate r draws its seed from the splittable hash of
(base_seed, r), and ``McConfig.workers`` changes nothing about a run,
so reports are bit-identical for any value of it.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from statistics import NormalDist

import numpy as np

from ._version import VERSION
from .bandwidth import rule_of_thumb
from .errors import (
    OPEN_UNIT, POSITIVE, at_least, check_fields, checked, checked_field, checked_list,
)
from .inference import NUMERATOR_TARGET, band_companions, confidence_band, length_ratio
from .kernels import DEFAULT_REGIME_THRESHOLD, KernelFamily, KernelSpec
from .locallinear import Target, estimate_curve

# mc no longer fits points itself, but perfbench's tracing test still
# rebinds mc.local_linear_fit, so the name stays in this namespace
from .locallinear import local_linear_fit  # noqa: F401
from .proxy import ProxySeries, build_proxy, build_regression_triples
from .simulate import ModelSpec, replicate_seed, simulate_path, true_moments

# fewest replicates whose studentized errors give adjusted lengths
MIN_ADJUSTED_REPLICATES = 40
_MIN_QQ_VALUES = 40


@dataclass(frozen=True, slots=True)
class BandwidthSetting:
    """A fixed bandwidth or a rule-of-thumb scale constant.

    Exactly one of ``fixed`` and ``rot_c`` must be set; the rule variant
    resolves to ``rule_of_thumb``'s c * std(proxy) * T^(-2/5) separately
    in each replicate.
    """

    fixed: float | None = None
    rot_c: float | None = None

    def __post_init__(self):
        if (self.fixed is None) == (self.rot_c is None):
            raise ValueError("set exactly one of fixed= or rot_c=")
        name = "fixed" if self.fixed is not None else "rot_c"
        v = checked(f"bandwidth setting {name}", getattr(self, name), POSITIVE)
        object.__setattr__(self, name, v)

    @property
    def label(self) -> str:
        name, v = ("h", self.fixed) if self.fixed is not None else ("rot_c", self.rot_c)
        # the short :g text unless it reads back as another value
        return f"{name}={v:g}" if float(f"{v:g}") == v else f"{name}={v!r}"

    def resolve(self, p: ProxySeries, T: float) -> float:
        if self.fixed is not None:
            return self.fixed
        return rule_of_thumb(p, self.rot_c, T).h


def _percentile_pair(name: str, v):
    """None, or two percentiles 0 <= lo < hi <= 100 as floats."""
    pair = v if v is None else checked_list(name, v)
    if pair is not None and not (len(pair) == 2 and 0 <= pair[0] < pair[1] <= 100):
        need = "two percentiles 0 <= lo < hi <= 100"
        raise ValueError(f"{name} must be {need}, got {pair!r}")
    return pair


@dataclass(frozen=True)
class McConfig:
    """Configuration of one Monte Carlo experiment cell; each field's own
    check is in its metadata, and ``__post_init__`` checks across fields."""

    model: ModelSpec
    T: float = checked_field(POSITIVE)
    n: int = checked_field(at_least(4), integer=True)
    replicates: int = checked_field(at_least(1), integer=True)
    base_seed: int = checked_field(at_least(0), integer=True, default=0)
    families: tuple[KernelFamily, ...] = (KernelFamily.GAMMA, KernelFamily.GAUSSIAN)
    bandwidths: tuple[BandwidthSetting, ...] = (BandwidthSetting(rot_c=2.8),)
    eval_points: tuple[float, ...] = field(
        default=(), metadata={"check": functools.partial(checked_list, distinct=True)}
    )
    target: Target = Target.DRIFT
    alpha: float = checked_field(OPEN_UNIT, default=0.05)
    tau: float = checked_field(POSITIVE, default=DEFAULT_REGIME_THRESHOLD)
    workers: int = checked_field(at_least(1), integer=True, default=1)
    mse_grid_size: int = checked_field(at_least(1), integer=True, default=50)
    mse_trim: tuple[float, float] | None = field(
        default=None, metadata={"check": _percentile_pair}
    )

    def __post_init__(self):
        check_fields(self)
        if not self.bandwidths:
            raise ValueError("need at least one bandwidth setting")
        if not self.families:
            raise ValueError("need at least one kernel family")
        for name, values in (
            ("families", self.families),
            ("bandwidths", [b.label for b in self.bandwidths]),
        ):
            if len(set(values)) < len(values):
                raise ValueError(f"{name} must not repeat, got {values!r}")
        if self.target not in NUMERATOR_TARGET:
            raise ValueError("experiments cover drift and conditional variance")

    def to_dict(self) -> dict:
        # workers changes nothing about a run and is no part of the
        # experiment; kept out of the echo, it leaves reports bit-identical
        d = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "workers"}
        return {
            **d,
            "model": asdict(self.model),
            "families": [f.value for f in self.families],
            "bandwidths": [b.label for b in self.bandwidths],
            "eval_points": list(self.eval_points),
            "target": self.target.value,
            "mse_trim": list(self.mse_trim) if self.mse_trim else None,
        }


@dataclass(frozen=True)
class McReport:
    """Aggregated rows plus raw per-replicate records of one experiment."""

    experiment: str
    config: dict
    rows: list[dict]
    records: list[dict]
    seeds: list[int]

    @classmethod
    def of(cls, cfg: McConfig, experiment: str, rows, records) -> "McReport":
        seeds = [replicate_seed(cfg.base_seed, r) for r in range(cfg.replicates)]
        return cls(experiment, cfg.to_dict(), rows, records, seeds)

    def to_csv(self, path) -> None:
        path = Path(path)
        with path.open("w", newline="") as fh:
            fh.write(f"# jdsmooth {VERSION} mc report: {self.experiment}\n")
            fh.write(f"# config: {json.dumps(self.config, sort_keys=True)}\n")
            fh.write(f"# base_seed: {self.config.get('base_seed')}\n")
            if self.rows:
                writer = csv.DictWriter(fh, fieldnames=list(self.rows[0].keys()))
                writer.writeheader()
                writer.writerows(self.rows)

    def to_json(self, path) -> None:
        payload = {
            "version": VERSION,
            "experiment": self.experiment,
            "config": self.config,
            "rows": self.rows,
            "records": self.records,
            "seeds": self.seeds,
        }
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))


def _map_replicates(cfg: McConfig, fit) -> list[dict]:
    """Every replicate's records, in replicate order."""
    return [rec for r in range(cfg.replicates) for rec in _replicate(cfg, r, fit)]


def _replicate(cfg: McConfig, r: int, fit) -> list[dict]:
    """Simulate replicate r once and fit it at every (bandwidth, family)."""
    seed = replicate_seed(cfg.base_seed, r)
    path = simulate_path(cfg.model, cfg.T, cfg.n, seed)
    p = build_proxy(path.y, path.delta)
    out = []
    for setting in cfg.bandwidths:
        h = setting.resolve(p, cfg.T)
        for family in cfg.families:
            rec = {
                "r": r,
                "seed": seed,
                "family": family.value,
                "bandwidth": setting.label,
                "h": h,
            }
            out += fit(cfg, p, KernelSpec(family, h), rec)
    return out


def _cells(cfg: McConfig, records, points) -> dict:
    """Records grouped in one pass by (bandwidth label, family, x in points),
    in the config's order; every record comes from the config's own sweep,
    so its key names a cell."""
    cells = {
        (setting.label, family.value, x): []
        for setting in cfg.bandwidths
        for family in cfg.families
        for x in points
    }
    for rec in records:
        cells[rec["bandwidth"], rec["family"], rec.get("x")].append(rec)
    return cells


def _mse_fit(cfg: McConfig, p, spec: KernelSpec, rec: dict) -> list[dict]:
    if cfg.mse_trim is not None:
        lo, hi = np.percentile(p.values, list(cfg.mse_trim))
    else:
        lo, hi = float(np.min(p.values)), float(np.max(p.values))
    grid = np.linspace(lo, hi, cfg.mse_grid_size)
    curve = estimate_curve(build_regression_triples(p), spec, grid, cfg.target)
    rec.update(ok=False, mse=None, point_failures=len(curve.failures))
    good = np.isfinite(curve.values)
    if good.any():
        truth = np.array([true_moments(cfg.model, float(x), cfg.T)[cfg.target]
                          for x in grid[good]])
        rec.update(ok=True, mse=float(np.mean((curve.values[good] - truth) ** 2)))
    return [rec]


def run_mse_experiment(cfg: McConfig) -> McReport:
    """Mean squared error of fitted curves against the model truth.

    Each replicate fits the target curve on a uniform grid spanning the
    realized proxy range (optionally trimmed to percentiles via
    ``mse_trim``); grid points where the fit fails are dropped from that
    replicate's average and counted.
    """
    records = _map_replicates(cfg, _mse_fit)
    rows = []
    for (label, family, _), cell in _cells(cfg, records, (None,)).items():
        good = [rec for rec in cell if rec["ok"]]
        mses = np.array([rec["mse"] for rec in good])
        rows.append(
            {
                "family": family,
                "bandwidth": label,
                "h_mean": float(np.mean([rec["h"] for rec in cell])),
                "mse_mean": float(np.mean(mses)) if mses.size else math.nan,
                "mse_median": float(np.median(mses)) if mses.size else math.nan,
                "mse_std": float(np.std(mses, ddof=1))
                if mses.size > 1
                else math.nan,
                "replicates_ok": len(good),
                "point_failures": int(sum(rec["point_failures"] for rec in cell)),
            }
        )
    return McReport.of(cfg, "mse", rows, records)


def _band_fit(cfg: McConfig, p, spec: KernelSpec, rec: dict) -> list[dict]:
    grid = np.asarray(cfg.eval_points, dtype=float)
    curve, companions = band_companions(p, spec, grid, cfg.target)
    band = confidence_band(
        curve, companions, cfg.alpha, n=cfg.n, delta=p.delta, tau=cfg.tau
    )
    out = []
    for i, x in enumerate(grid.tolist()):
        point = {
            **rec,
            "x": x,
            "ok": False,
            "estimate": None,
            "bias": None,
            "variance": None,
            "rate": None,
            "covered": None,
            "length": None,
            "reason": band.gaps.get(i, ""),
        }
        if i not in band.gaps:
            lo, hi = float(band.lower[i]), float(band.upper[i])
            truth = true_moments(cfg.model, x, cfg.T)[cfg.target]
            point.update(
                ok=True,
                estimate=float(curve.values[i]),
                bias=float(band.bias[i]),
                variance=float(band.variance[i]),
                rate=float(band.rate[i]),
                covered=bool(lo <= truth <= hi),
                length=hi - lo,
            )
        out.append(point)
    return out


def _band_report(cfg: McConfig, experiment: str, row, key: str) -> McReport:
    """Sweep the band records, then one row per cell: the cell's labels,
    then ``row(cfg, cell, truth)``, then the ``length_ratio`` of the
    families' ``key`` means (a missing family's mean is NaN)."""
    if not cfg.eval_points:
        raise ValueError("this experiment needs at least one evaluation point")
    records = _map_replicates(cfg, _band_fit)
    points = [float(x) for x in cfg.eval_points]
    rows = []
    for (label, family, x), cell in _cells(cfg, records, points).items():
        stats = row(cfg, cell, true_moments(cfg.model, x, cfg.T)[cfg.target])
        rows.append({"family": family, "bandwidth": label, "x": x, **stats})
    means = {(r["bandwidth"], r["x"], r["family"]): r[f"{key}_mean"] for r in rows}
    for r in rows:
        sym, asym = (means.get((r["bandwidth"], r["x"], f), math.nan)
                     for f in ("gaussian", "gamma"))
        r[f"{key}_ratio_sym_over_asym"] = length_ratio(sym, asym)
    return McReport.of(cfg, experiment, rows, records)


def _coverage_row(cfg: McConfig, cell: list[dict], truth: float) -> dict:
    good = [rec for rec in cell if rec["ok"]]
    est = np.array([rec["estimate"] for rec in good])
    est_var = np.array([rec["variance"] / rec["rate"] ** 2 for rec in good])
    lengths = np.array([rec["length"] for rec in good])
    covered = np.array([rec["covered"] for rec in good], dtype=bool)
    return {
        "coverage_pct": 100.0 * float(np.mean(covered)) if good else math.nan,
        "mean_bias": float(np.mean(est - truth)) if good else math.nan,
        "var_estimates": float(np.var(est, ddof=1)) if len(good) > 1 else math.nan,
        "est_variance_mean": float(np.mean(est_var)) if good else math.nan,
        "est_variance_std": float(np.std(est_var, ddof=1))
        if len(good) > 1
        else math.nan,
        "length_mean": float(np.mean(lengths)) if good else math.nan,
        "replicates_ok": len(good),
        "failures": len(cell) - len(good),
    }


def run_coverage_experiment(cfg: McConfig) -> McReport:
    """Empirical coverage and length of pointwise asymptotic bands."""
    return _band_report(cfg, "coverage", _coverage_row, "length")


def _adjusted_row(cfg: McConfig, cell: list[dict], truth: float) -> dict:
    good = [rec for rec in cell if rec["ok"] and rec["variance"] > 0]
    row = {
        "adjusted_length_mean": math.nan,
        "achieved_coverage_pct": math.nan,
        "q_low": math.nan,
        "q_high": math.nan,
        "replicates_ok": len(good),
        "failures": len(cell) - len(good),
    }
    if len(good) >= MIN_ADJUSTED_REPLICATES:
        z = np.array(
            [
                (rec["estimate"] - rec["bias"] - truth)
                * rec["rate"]
                / math.sqrt(rec["variance"])
                for rec in good
            ]
        )
        q_low, q_high = np.quantile(z, [cfg.alpha / 2.0, 1.0 - cfg.alpha / 2.0])
        se = np.array([math.sqrt(rec["variance"]) / rec["rate"] for rec in good])
        row.update(
            adjusted_length_mean=float(np.mean((q_high - q_low) * se)),
            achieved_coverage_pct=100.0
            * float(np.mean((z >= q_low) & (z <= q_high))),
            q_low=float(q_low),
            q_high=float(q_high),
        )
    return row


def run_adjusted_length_experiment(cfg: McConfig) -> McReport:
    """Band lengths recalibrated by empirical studentized-error quantiles.

    The experiment runs its own sweep of band records, the one a coverage
    run of the same config makes.  The studentized errors
    (estimate - bias - truth) * rate / sqrt(variance) are pooled across
    replicates per cell; their alpha/2 and 1 - alpha/2 quantiles replace
    the normal critical values and the resulting lengths are averaged.
    Needs at least 40 replicates to make the quantiles meaningful.
    """
    if cfg.replicates < MIN_ADJUSTED_REPLICATES:
        raise ValueError(
            f"adjusted lengths need at least {MIN_ADJUSTED_REPLICATES} replicates"
        )
    return _band_report(cfg, "adjusted_length", _adjusted_row, "adjusted_length")


def qq_data(values):
    """Standardized order statistics paired with normal quantiles.

    Returns (theoretical, empirical) arrays where theoretical[i] is the
    standard normal quantile at (i + 0.5)/len and empirical is the sorted
    finite input, standardized by its sample mean and standard deviation.
    """
    v = np.asarray(values, dtype=float)
    v = v[np.isfinite(v)]
    if v.size < _MIN_QQ_VALUES:
        raise ValueError(f"need at least {_MIN_QQ_VALUES} values, got {v.size}")
    mu = float(np.mean(v))
    sd = float(np.std(v, ddof=1))
    if not (sd > 0):
        raise ValueError("values have no spread; cannot standardize")
    emp = np.sort((v - mu) / sd)
    probs = (np.arange(v.size) + 0.5) / v.size
    theo = np.array([NormalDist().inv_cdf(q) for q in probs.tolist()])
    return theo, emp
