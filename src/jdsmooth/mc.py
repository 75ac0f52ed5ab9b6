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

Replicate r draws its seed from the splittable hash of (base_seed, r) and
results are reduced in replicate order, so reports are bit-identical no
matter how many workers run the sweep.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from statistics import NormalDist

import numpy as np

from ._version import VERSION
from .errors import EstimationError
from .inference import band_companions, confidence_band
from .kernels import DEFAULT_REGIME_THRESHOLD, KernelFamily, KernelSpec
from .locallinear import Target, estimate_curve

# mc no longer fits points itself, but perfbench's tracing test still
# rebinds mc.local_linear_fit, so the name stays in this namespace
from .locallinear import local_linear_fit  # noqa: F401
from .proxy import build_proxy, build_regression_triples
from .simulate import ModelSpec, replicate_seed, simulate_path, true_moments

_MIN_ADJUSTED_REPLICATES = 40
_MIN_QQ_VALUES = 40


@dataclass(frozen=True, slots=True)
class BandwidthSetting:
    """A fixed bandwidth or a rule-of-thumb scale constant.

    Exactly one of ``fixed`` and ``rot_c`` must be set; the rule variant
    resolves to c * std(proxy) * T^(-2/5) separately in each replicate.
    """

    fixed: float | None = None
    rot_c: float | None = None

    def __post_init__(self):
        if (self.fixed is None) == (self.rot_c is None):
            raise ValueError("set exactly one of fixed= or rot_c=")
        v = self.fixed if self.fixed is not None else self.rot_c
        if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
            raise ValueError(f"bandwidth setting must be positive, got {v!r}")

    @property
    def label(self) -> str:
        if self.fixed is not None:
            return f"h={self.fixed:g}"
        return f"rot_c={self.rot_c:g}"

    def resolve(self, proxy_std: float, T: float) -> float:
        if self.fixed is not None:
            return float(self.fixed)
        return float(self.rot_c) * proxy_std * T ** (-0.4)


@dataclass(frozen=True)
class McConfig:
    """Configuration of one Monte Carlo experiment cell."""

    model: ModelSpec
    T: float
    n: int
    replicates: int
    base_seed: int = 0
    families: tuple[KernelFamily, ...] = (KernelFamily.GAMMA, KernelFamily.GAUSSIAN)
    bandwidths: tuple[BandwidthSetting, ...] = (BandwidthSetting(rot_c=2.8),)
    eval_points: tuple[float, ...] = ()
    target: Target = Target.DRIFT
    alpha: float = 0.05
    tau: float = DEFAULT_REGIME_THRESHOLD
    workers: int = 1
    mse_grid_size: int = 50
    mse_trim: tuple[float, float] | None = None

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        if self.n < 4:
            raise ValueError("need at least four observations per path")
        if not (self.T > 0):
            raise ValueError("horizon T must be positive")
        if not self.bandwidths:
            raise ValueError("need at least one bandwidth setting")
        if not self.families:
            raise ValueError("need at least one kernel family")
        if self.target not in (Target.DRIFT, Target.COND_VARIANCE):
            raise ValueError("experiments cover drift and conditional variance")
        if not (0 < self.alpha < 1):
            raise ValueError("alpha must be in (0, 1)")
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError(f"tau must be positive and finite, got {self.tau!r}")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")

    def to_dict(self) -> dict:
        # workers is an execution detail, not part of the experiment's
        # identity; keeping it out of the echo keeps reports bit-identical
        # across thread counts
        d = {
            "model": asdict(self.model),
            "T": self.T,
            "n": self.n,
            "replicates": self.replicates,
            "base_seed": self.base_seed,
            "families": [f.value for f in self.families],
            "bandwidths": [b.label for b in self.bandwidths],
            "eval_points": list(self.eval_points),
            "target": self.target.value,
            "alpha": self.alpha,
            "tau": self.tau,
            "mse_grid_size": self.mse_grid_size,
            "mse_trim": list(self.mse_trim) if self.mse_trim else None,
        }
        return d


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


def _map_replicates(cfg: McConfig, worker):
    """Run worker(r) for each replicate, reducing in index order."""
    indices = range(cfg.replicates)
    if cfg.workers == 1:
        return [worker(r) for r in indices]
    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        return list(pool.map(worker, indices))


def _simulate_proxy(cfg: McConfig, r: int):
    seed = replicate_seed(cfg.base_seed, r)
    path = simulate_path(cfg.model, cfg.T, cfg.n, seed)
    p = build_proxy(path.y, path.delta)
    triples = build_regression_triples(p)
    s = float(np.std(p.values, ddof=1))
    return seed, p, triples, s


def _truth_value(cfg: McConfig, x: float) -> float:
    tm = true_moments(cfg.model, x, cfg.T)
    return tm.mu if cfg.target is Target.DRIFT else tm.m


def _mse_replicate(cfg: McConfig, r: int) -> list[dict]:
    seed, p, triples, s = _simulate_proxy(cfg, r)
    if cfg.mse_trim is not None:
        lo, hi = np.percentile(p.values, list(cfg.mse_trim))
    else:
        lo, hi = float(np.min(p.values)), float(np.max(p.values))
    grid = np.linspace(lo, hi, cfg.mse_grid_size)
    out = []
    for setting in cfg.bandwidths:
        h = setting.resolve(s, cfg.T)
        for family in cfg.families:
            spec = KernelSpec(family, h)
            rec = {
                "r": r,
                "seed": seed,
                "family": family.value,
                "bandwidth": setting.label,
                "h": h,
                "ok": False,
                "mse": None,
                "point_failures": cfg.mse_grid_size,
            }
            try:
                curve = estimate_curve(triples, spec, grid, cfg.target)
            except EstimationError:
                out.append(rec)
                continue
            good = np.isfinite(curve.values)
            truth = np.array([_truth_value(cfg, float(x)) for x in grid[good]])
            errs = (curve.values[good] - truth) ** 2
            rec["ok"] = True
            rec["mse"] = float(np.mean(errs))
            rec["point_failures"] = int(len(curve.failures))
            out.append(rec)
    return out


def run_mse_experiment(cfg: McConfig) -> McReport:
    """Mean squared error of fitted curves against the model truth.

    Each replicate fits the target curve on a uniform grid spanning the
    realized proxy range (optionally trimmed to percentiles via
    ``mse_trim``); grid points where the fit fails are dropped from that
    replicate's average and counted.
    """
    per_rep = _map_replicates(cfg, lambda r: _mse_replicate(cfg, r))
    records = [rec for batch in per_rep for rec in batch]
    rows = []
    for setting in cfg.bandwidths:
        for family in cfg.families:
            cell = [
                rec
                for rec in records
                if rec["family"] == family.value and rec["bandwidth"] == setting.label
            ]
            good = [rec for rec in cell if rec["ok"]]
            mses = np.array([rec["mse"] for rec in good])
            rows.append(
                {
                    "family": family.value,
                    "bandwidth": setting.label,
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


def _pointwise_replicate(cfg: McConfig, r: int) -> list[dict]:
    seed, p, triples, s = _simulate_proxy(cfg, r)
    grid = np.asarray(cfg.eval_points, dtype=float)
    out = []
    for setting in cfg.bandwidths:
        h = setting.resolve(s, cfg.T)
        for family in cfg.families:
            spec = KernelSpec(family, h)
            try:
                curve = estimate_curve(triples, spec, grid, cfg.target)
                companions = band_companions(p, triples, spec, grid, cfg.target)
                band = confidence_band(
                    curve, companions, cfg.alpha, n=cfg.n, delta=p.delta, tau=cfg.tau
                )
                gaps = band.gaps
            except EstimationError as exc:
                band, gaps = None, dict.fromkeys(range(grid.size), str(exc))
            for i, x in enumerate(grid.tolist()):
                rec = {
                    "r": r,
                    "seed": seed,
                    "family": family.value,
                    "bandwidth": setting.label,
                    "h": h,
                    "x": x,
                    "ok": False,
                    "estimate": None,
                    "bias": None,
                    "variance": None,
                    "rate": None,
                    "covered": None,
                    "length": None,
                    "reason": gaps.get(i, ""),
                }
                if i not in gaps:
                    lo, hi = float(band.lower[i]), float(band.upper[i])
                    truth = _truth_value(cfg, x)
                    rec.update(
                        ok=True,
                        estimate=float(curve.values[i]),
                        bias=float(band.bias[i]),
                        variance=float(band.variance[i]),
                        rate=float(band.rate[i]),
                        covered=bool(lo <= truth <= hi),
                        length=hi - lo,
                    )
                out.append(rec)
    return out


def _pointwise_records(cfg: McConfig) -> list[dict]:
    if not cfg.eval_points:
        raise ValueError("this experiment needs at least one evaluation point")
    per_rep = _map_replicates(cfg, lambda r: _pointwise_replicate(cfg, r))
    return [rec for batch in per_rep for rec in batch]


def _cells(cfg: McConfig):
    for setting in cfg.bandwidths:
        for family in cfg.families:
            for x in cfg.eval_points:
                yield setting, family, float(x)


def _cell_records(records, setting, family, x):
    return [
        rec
        for rec in records
        if rec["family"] == family.value
        and rec["bandwidth"] == setting.label
        and rec["x"] == x
    ]


def _attach_length_ratio(cfg: McConfig, rows: list[dict], key: str) -> None:
    """Set ratio columns: Gaussian mean length over Gamma mean length."""
    for row in rows:
        row[f"{key}_ratio_sym_over_asym"] = math.nan
    for setting in cfg.bandwidths:
        for x in cfg.eval_points:
            pair = {
                row["family"]: row
                for row in rows
                if row["bandwidth"] == setting.label and row["x"] == float(x)
            }
            if "gamma" in pair and "gaussian" in pair:
                denom = pair["gamma"][f"{key}_mean"]
                numer = pair["gaussian"][f"{key}_mean"]
                if denom and math.isfinite(denom) and denom > 0:
                    ratio = numer / denom
                    pair["gamma"][f"{key}_ratio_sym_over_asym"] = ratio
                    pair["gaussian"][f"{key}_ratio_sym_over_asym"] = ratio


def run_coverage_experiment(cfg: McConfig) -> McReport:
    """Empirical coverage and length of pointwise asymptotic bands."""
    records = _pointwise_records(cfg)
    rows = []
    for setting, family, x in _cells(cfg):
        cell = _cell_records(records, setting, family, x)
        good = [rec for rec in cell if rec["ok"]]
        truth = _truth_value(cfg, x)
        est = np.array([rec["estimate"] for rec in good])
        est_var = np.array([rec["variance"] / rec["rate"] ** 2 for rec in good])
        lengths = np.array([rec["length"] for rec in good])
        covered = np.array([rec["covered"] for rec in good], dtype=bool)
        rows.append(
            {
                "family": family.value,
                "bandwidth": setting.label,
                "x": x,
                "coverage_pct": 100.0 * float(np.mean(covered)) if good else math.nan,
                "mean_bias": float(np.mean(est - truth)) if good else math.nan,
                "var_estimates": float(np.var(est, ddof=1))
                if len(good) > 1
                else math.nan,
                "est_variance_mean": float(np.mean(est_var)) if good else math.nan,
                "est_variance_std": float(np.std(est_var, ddof=1))
                if len(good) > 1
                else math.nan,
                "length_mean": float(np.mean(lengths)) if good else math.nan,
                "replicates_ok": len(good),
                "failures": len(cell) - len(good),
            }
        )
    _attach_length_ratio(cfg, rows, "length")
    return McReport.of(cfg, "coverage", rows, records)


def run_adjusted_length_experiment(
    cfg: McConfig, records: list[dict] | None = None
) -> McReport:
    """Band lengths recalibrated by empirical studentized-error quantiles.

    The studentized errors (estimate - bias - truth) * rate / sqrt(variance)
    are pooled across replicates per cell; their alpha/2 and 1 - alpha/2
    quantiles replace the normal critical values and the resulting lengths
    are averaged.  Needs at least 40 replicates to make the quantiles
    meaningful.  Pass ``records`` to reuse a coverage run's sweep.
    """
    if cfg.replicates < _MIN_ADJUSTED_REPLICATES:
        raise ValueError(
            f"adjusted lengths need at least {_MIN_ADJUSTED_REPLICATES} replicates"
        )
    if records is None:
        records = _pointwise_records(cfg)
    rows = []
    for setting, family, x in _cells(cfg):
        cell = _cell_records(records, setting, family, x)
        good = [rec for rec in cell if rec["ok"] and rec["variance"] > 0]
        truth = _truth_value(cfg, x)
        row = {
            "family": family.value,
            "bandwidth": setting.label,
            "x": x,
            "adjusted_length_mean": math.nan,
            "achieved_coverage_pct": math.nan,
            "q_low": math.nan,
            "q_high": math.nan,
            "replicates_ok": len(good),
            "failures": len(cell) - len(good),
        }
        if len(good) >= _MIN_ADJUSTED_REPLICATES:
            z = np.array(
                [
                    (rec["estimate"] - rec["bias"] - truth)
                    * rec["rate"]
                    / math.sqrt(rec["variance"])
                    for rec in good
                ]
            )
            q_low, q_high = np.quantile(z, [cfg.alpha / 2.0, 1.0 - cfg.alpha / 2.0])
            se = np.array(
                [math.sqrt(rec["variance"]) / rec["rate"] for rec in good]
            )
            row.update(
                adjusted_length_mean=float(np.mean((q_high - q_low) * se)),
                achieved_coverage_pct=100.0
                * float(np.mean((z >= q_low) & (z <= q_high))),
                q_low=float(q_low),
                q_high=float(q_high),
            )
        rows.append(row)
    _attach_length_ratio(cfg, rows, "adjusted_length")
    return McReport.of(cfg, "adjusted_length", rows, records)


def qq_data(values, center: float | None = None, scale: float | None = None):
    """Standardized order statistics paired with normal quantiles.

    Returns (theoretical, empirical) arrays where theoretical[i] is the
    standard normal quantile at (i + 0.5)/len and empirical is the sorted,
    standardized input.  Standardization uses the sample mean and standard
    deviation unless explicit center/scale are given.
    """
    v = np.asarray(values, dtype=float)
    v = v[np.isfinite(v)]
    if v.size < _MIN_QQ_VALUES:
        raise ValueError(f"need at least {_MIN_QQ_VALUES} values, got {v.size}")
    mu = float(np.mean(v)) if center is None else float(center)
    sd = float(np.std(v, ddof=1)) if scale is None else float(scale)
    if not (sd > 0):
        raise ValueError("values have no spread; cannot standardize")
    emp = np.sort((v - mu) / sd)
    probs = (np.arange(v.size) + 0.5) / v.size
    theo = np.array([NormalDist().inv_cdf(q) for q in probs.tolist()])
    return theo, emp
