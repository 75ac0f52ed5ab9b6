"""Bandwidth selection: rule of thumb, grid search, cross-validation, plug-in.

The rule of thumb scales the sample standard deviation of the proxy,

    h = c * S * T^(-2/5)   (interior target),
    h = c * S * T^(-1/5)   (boundary target),

and the other selectors refine the scale constant c or h itself.  The
simulation-oriented grid search scores candidate constants against a known
truth; k-block cross-validation scores candidate bandwidths by one-sided
prediction of the drift response with a 2k+1 wide block around each point
held out, which breaks the serial dependence that defeats ordinary
leave-one-out on diffusion data.  The asymptotic plug-in balances squared
bias against variance pointwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from .errors import EstimationError, SparseRegionError
from .inference import asymptotic_moments
from .kernels import KernelFamily, KernelSpec, PointRegime, RegimeKind
from .locallinear import LinearFitter, Target, estimate_curve
from .proxy import ProxySeries, build_regression_triples
from .summation import exact_sum

_GRID_COUNT = 25
_GRID_SPAN = (0.2, 5.0)
_DEFAULT_GRID_C = 2.0


class BandwidthMethod(Enum):
    RULE_OF_THUMB = "rule_of_thumb"
    MSE_GRID = "mse_grid"
    BLOCK_CV = "block_cv"
    ASYMPTOTIC_PLUGIN = "asymptotic_plugin"


@dataclass(frozen=True)
class BandwidthChoice:
    """A selected bandwidth plus the score curve that produced it."""

    h: float
    method: BandwidthMethod
    candidates: np.ndarray = field(default_factory=lambda: np.empty(0))
    objectives: np.ndarray = field(default_factory=lambda: np.empty(0))
    c: float | None = None
    k: int | None = None
    failures: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.h) and self.h > 0):
            raise ValueError(f"selected bandwidth must be positive, got {self.h!r}")
        if self.candidates.size != self.objectives.size:
            raise ValueError("candidates and objectives must align")


def _proxy_scale(p: ProxySeries) -> float:
    s = float(np.std(p.values, ddof=1)) if len(p) > 1 else 0.0
    if not (s > 0):
        raise ValueError("proxy series has no spread; cannot scale a bandwidth")
    return s


def _rot_exponent(regime: RegimeKind) -> float:
    return -0.4 if regime is RegimeKind.INTERIOR else -0.2


def rule_of_thumb(
    p: ProxySeries,
    c: float,
    T: float,
    regime: RegimeKind = RegimeKind.INTERIOR,
) -> BandwidthChoice:
    """h = c * std(proxy) * T^(-2/5), or T^(-1/5) for boundary targets."""
    if not (math.isfinite(c) and c > 0):
        raise ValueError(f"scale constant c must be positive, got {c!r}")
    if not (math.isfinite(T) and T > 0):
        raise ValueError(f"horizon T must be positive, got {T!r}")
    s = _proxy_scale(p)
    h = c * s * T ** _rot_exponent(regime)
    return BandwidthChoice(h=h, method=BandwidthMethod.RULE_OF_THUMB, c=c)


def default_h_grid(
    p: ProxySeries,
    count: int = _GRID_COUNT,
    span: tuple[float, float] = _GRID_SPAN,
    T: float | None = None,
) -> np.ndarray:
    """Log-spaced candidate bandwidths around the rule-of-thumb value.

    T defaults to the observation span delta * n of the proxy itself.
    """
    if count < 2:
        raise ValueError("need at least two candidates")
    if T is None:
        T = p.delta * len(p)
    rot = rule_of_thumb(p, c=_DEFAULT_GRID_C, T=T).h
    return np.geomspace(span[0] * rot, span[1] * rot, count)


def mse_grid_search(
    truth: Callable[[np.ndarray], np.ndarray],
    p: ProxySeries,
    c_grid,
    T: float,
    eval_grid,
    family: KernelFamily = KernelFamily.GAMMA,
    target: Target = Target.DRIFT,
    regime: RegimeKind = RegimeKind.INTERIOR,
) -> BandwidthChoice:
    """Score rule-of-thumb scale constants against a known truth.

    For each candidate c the curve is fitted at h(c) over eval_grid and
    scored by mean squared error against truth(x); failed grid points are
    dropped from the average and counted.  Ties go to the smallest
    candidate.  Only meaningful in simulation studies where the truth is
    available.
    """
    c_grid = np.sort(np.asarray(c_grid, dtype=float))
    eval_grid = np.asarray(eval_grid, dtype=float)
    if c_grid.size == 0 or eval_grid.size == 0:
        raise ValueError("candidate and evaluation grids must be nonempty")
    triples = build_regression_triples(p)
    s = _proxy_scale(p)
    exponent = _rot_exponent(regime)
    true_vals = np.asarray(truth(eval_grid), dtype=float)

    objectives = np.full(c_grid.size, np.inf)
    failures = 0
    for j, c in enumerate(c_grid):
        spec = KernelSpec(family, c * s * T**exponent)
        try:
            curve = estimate_curve(triples, spec, eval_grid, target)
        except EstimationError:
            failures += eval_grid.size
            continue
        failures += len(curve.failures)
        errs = np.delete((curve.values - true_vals) ** 2, list(curve.failures))
        objectives[j] = exact_sum(errs) / errs.size
    if not np.any(np.isfinite(objectives)):
        raise SparseRegionError(
            float(eval_grid[0]), "every candidate bandwidth failed at every point"
        )
    best = int(np.argmin(objectives))
    c_best = float(c_grid[best])
    return BandwidthChoice(
        h=c_best * s * T**exponent,
        method=BandwidthMethod.MSE_GRID,
        candidates=c_grid,
        objectives=objectives,
        c=c_best,
        failures=failures,
    )


def block_cv(
    p: ProxySeries,
    h_grid=None,
    k: int | None = None,
    family: KernelFamily = KernelFamily.GAMMA,
) -> BandwidthChoice:
    """k-block cross-validation for the drift bandwidth.

    CV(h) = n^-1 sum_i {drift response_i - mu_hat_{h,-i}(Xt_i)}^2 where
    mu_hat_{h,-i} omits the 2k+1 observations centered on i: the triples
    whose design point has a proxy index in [i - k, i + k] get kernel
    weight zero.  The default block half-width is round(n^(1/4)).
    Leave-out fits that fail (sparse region, collinear design, evaluation
    point outside the kernel support) contribute the unconditional
    response variance, which penalizes degenerate candidates without
    discarding them.  On ties the smallest bandwidth wins.  A candidate's
    folds go through one ``LinearFitter.fits`` call with their blocks as
    ``held``; each objective is the one fitting folds one by one gives.
    """
    n = len(p)
    if k is None:
        k = int(round(n**0.25))
    k = int(k)
    if k < 1:
        raise ValueError("block half-width k must be at least 1")
    if n < 4 * k + 4:
        raise ValueError(
            f"series of length {n} is too short for block width k={k}"
        )
    if h_grid is None:
        h_grid = default_h_grid(p)
    h_grid = np.sort(np.asarray(h_grid, dtype=float))
    if h_grid.size == 0 or np.any(h_grid <= 0):
        raise ValueError("h_grid must contain positive bandwidths")

    triples = build_regression_triples(p)
    off = triples.source_offset
    resp = triples.drift
    penalty = float(np.var(resp))
    fitter = LinearFitter(family, triples.weight_points, triples.design_points, resp)

    # proxy index i runs k+1 .. n-k in 1-based terms.  Triple j has design
    # point Xt_{j + off}: the one at i - off is predicted and the block
    # [i - k, i + k] is held out, clamped at the start of the series
    centers = np.arange(k + 1, n - k + 1)
    xs = p.values[centers - 1]
    ys = resp[centers - off]
    held = np.column_stack([np.maximum(centers - k - off, 0), centers + k + 1 - off])
    objectives = np.empty(h_grid.size)
    failures = 0
    for jh, h in enumerate(h_grid):
        fits = fitter.fits(float(h), xs, held)
        done = np.flatnonzero(fits.ok)
        failures += centers.size - done.size
        scores = np.full(centers.size, penalty)
        # squared by Python's float ** (libm pow), which can differ from
        # numpy's x * x in the last bit
        scores[done] = [r**2 for r in (ys[done] - fits.intercept[done]).tolist()]
        objectives[jh] = exact_sum(scores) / n
    best = int(np.argmin(objectives))
    return BandwidthChoice(
        h=float(h_grid[best]),
        method=BandwidthMethod.BLOCK_CV,
        candidates=h_grid,
        objectives=objectives,
        k=k,
        failures=failures,
    )


def asymptotic_h_opt(
    x: float,
    n: int,
    delta: float,
    m_hat: float,
    p_hat: float,
    curvature: float,
    regime: PointRegime,
) -> BandwidthChoice:
    """Pointwise plug-in bandwidth balancing squared bias and variance.

    The constants are the drift's limit theory at h = 1
    (``asymptotic_moments``): bias B h^a and variance V / (n delta h^b).
    B^2 h^(2a) = V / (n delta h^b) gives h = (V / (B^2 n delta))^(1/(2a+b)),
    the 2/5 power in the interior (a = 1, b = 1/2) and the 1/5 power at a
    boundary (a = 2, b = 1).
    """
    if not (math.isfinite(curvature) and curvature != 0.0):
        raise ValueError("plug-in bandwidth needs nonzero curvature")
    if not (m_hat > 0):
        raise ValueError(f"variance numerator must be positive, got {m_hat!r}")
    mom = asymptotic_moments(
        x, 1.0, n, delta, Target.DRIFT, curvature, m_hat, p_hat, regime
    )
    exponent = 0.4 if regime.kind is RegimeKind.INTERIOR else 0.2
    h = (mom.variance * 4.0 / (2.0 * mom.bias) ** 2 / (n * delta)) ** exponent
    return BandwidthChoice(h=float(h), method=BandwidthMethod.ASYMPTOTIC_PLUGIN)
