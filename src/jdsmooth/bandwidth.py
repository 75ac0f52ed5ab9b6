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

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from . import pool
from .errors import (
    POSITIVE, DataError, SparseRegionError, at_least, checked, checked_list,
)
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
        object.__setattr__(self, "h", checked("selected bandwidth", self.h, POSITIVE))
        if self.candidates.size != self.objectives.size:
            raise ValueError("candidates and objectives must align")


def _rot_exponent(regime: RegimeKind) -> float:
    return -0.4 if regime is RegimeKind.INTERIOR else -0.2


def rule_of_thumb(
    p: ProxySeries,
    c: float,
    T: float | None = None,
    regime: RegimeKind = RegimeKind.INTERIOR,
) -> BandwidthChoice:
    """h = c * std(proxy) * T^(-2/5), or T^(-1/5) for boundary targets;
    T defaults to the proxy's observation span delta * n."""
    c = checked("scale constant c", c, POSITIVE)
    T = checked("horizon T", p.delta * len(p) if T is None else T, POSITIVE)
    s = float(np.std(p.values, ddof=1)) if len(p) > 1 else 0.0
    if not (s > 0):
        raise DataError("proxy series has no spread; cannot scale a bandwidth")
    h = c * s * T ** _rot_exponent(regime)
    return BandwidthChoice(h=h, method=BandwidthMethod.RULE_OF_THUMB, c=c)


def default_h_grid(p: ProxySeries) -> np.ndarray:
    """The ``_GRID_COUNT`` log-spaced candidate bandwidths around the
    rule-of-thumb value at the observation span delta * n of the proxy."""
    rot = rule_of_thumb(p, c=_DEFAULT_GRID_C).h
    return np.geomspace(_GRID_SPAN[0] * rot, _GRID_SPAN[1] * rot, _GRID_COUNT)


def mse_grid_search(
    truth: Callable[[np.ndarray], np.ndarray],
    p: ProxySeries,
    c_grid,
    T: float,
    eval_grid,
) -> BandwidthChoice:
    """Score rule-of-thumb scale constants against a known drift truth.

    For each candidate c the Gamma-kernel drift curve is fitted at the
    interior rule of thumb h(c) = c * S * T^(-2/5) over eval_grid and
    scored by mean squared error against truth(x); failed grid points are
    dropped from the average and counted, and a candidate that fails at
    every point keeps the objective inf.  Ties go to the smallest
    candidate.  Only meaningful in simulation studies where the truth is
    available.
    """
    c_grid = np.sort(np.asarray(c_grid, dtype=float))
    eval_grid = np.asarray(eval_grid, dtype=float)
    if c_grid.size == 0 or eval_grid.size == 0:
        raise ValueError("candidate and evaluation grids must be nonempty")
    triples = build_regression_triples(p)
    true_vals = np.asarray(truth(eval_grid), dtype=float)

    objectives = np.full(c_grid.size, np.inf)
    failures = 0
    for j, c in enumerate(c_grid):
        spec = KernelSpec(KernelFamily.GAMMA, rule_of_thumb(p, c, T).h)
        curve = estimate_curve(triples, spec, eval_grid, Target.DRIFT)
        failures += len(curve.failures)
        errs = np.delete((curve.values - true_vals) ** 2, list(curve.failures))
        if errs.size:
            objectives[j] = exact_sum(errs) / errs.size
    if not np.any(np.isfinite(objectives)):
        raise SparseRegionError(
            float(eval_grid[0]), "every candidate bandwidth failed at every point"
        )
    best = int(np.argmin(objectives))
    c_best = float(c_grid[best])
    return BandwidthChoice(
        h=rule_of_thumb(p, c_best, T).h,
        method=BandwidthMethod.MSE_GRID,
        candidates=c_grid,
        objectives=objectives,
        c=c_best,
        failures=failures,
    )


class _FoldJob(NamedTuple):
    """What every (candidate, fold) pair shares: the fitter, the candidates
    and the folds."""

    fitter: LinearFitter
    hs: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    held: np.ndarray
    penalty: float


def _score_candidates(job: _FoldJob, span) -> list[tuple[int, np.ndarray, int]]:
    """(candidate index, fold scores, failed folds) of each candidate with
    pairs in span = (start, stop), a slice of the (candidate, fold) pairs in
    candidate-major order; the scores are those of its folds in the slice."""
    start, stop = span
    folds = job.xs.size
    scored = []
    for j in range(start // folds, -(-stop // folds)):
        a, b = max(start - j * folds, 0), min(stop - j * folds, folds)
        fits = job.fitter.fits(
            float(job.hs[j]), job.xs[a:b], [Target.DRIFT], job.held[a:b]
        )
        done = np.flatnonzero(fits.ok)
        scores = np.full(b - a, job.penalty)
        r = job.ys[a + done] - fits.intercept[0, done]
        scores[done] = r * r
        scored.append((j, scores, b - a - done.size))
    return scored


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

    The (candidate, fold) pairs, sorted candidates first and folds in
    order within each, are cut into contiguous slices of equal size, one
    per usable CPU, and scored on forked worker processes
    (``pool.map_in_order``), so even one candidate uses every core; each
    candidate's fold scores are joined in fold order and summed exactly.
    They are scored serially where that pool runs inline: one usable CPU,
    no fork start method, inside a multiprocessing child, or while other
    threads are alive.  Every sum is exact, so objectives, failures and
    the choice are identical for any CPU count.
    """
    n = len(p)
    if k is None:
        k = int(round(n**0.25))
    k = checked("block half-width k", k, at_least(1), integer=True)
    if n < 4 * k + 4:
        raise DataError(f"series of length {n} is too short for block width k={k}")
    if h_grid is None:
        h_grid = default_h_grid(p)
    h_grid = np.sort(np.array(checked_list("h_grid", h_grid, POSITIVE)))
    if h_grid.size == 0:
        raise ValueError("h_grid must not be empty")

    triples = build_regression_triples(p)
    off = triples.source_offset
    resp = triples.drift

    # proxy index i runs k+1 .. n-k in 1-based terms.  Triple j has design
    # point Xt_{j + off}: the one at i - off is predicted and the block
    # [i - k, i + k] is held out, clamped at the start of the series
    centers = np.arange(k + 1, n - k + 1)
    job = _FoldJob(
        fitter=LinearFitter(family, triples),
        hs=h_grid,
        xs=p.values[centers - 1],
        ys=resp[centers - off],
        held=np.column_stack(
            [np.maximum(centers - k - off, 0), centers + k + 1 - off]
        ),
        penalty=float(np.var(resp)),
    )
    pairs = h_grid.size * centers.size
    count = min(pool.usable_cpus(), pairs)
    ends = [pairs * i // count for i in range(count + 1)]
    spans = list(zip(ends, ends[1:]))
    scores = [[] for _ in range(h_grid.size)]
    failures = 0
    for scored in pool.map_in_order(functools.partial(_score_candidates, job), spans):
        for j, fold_scores, failed in scored:
            scores[j].append(fold_scores)
            failures += failed
    objectives = np.array([exact_sum(np.concatenate(parts)) / n for parts in scores])
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
    numerator: float,
    p_hat: float,
    curvature: float,
    regime: PointRegime,
    target: Target,
) -> BandwidthChoice:
    """Pointwise plug-in bandwidth balancing squared bias and variance.

    The constants are the band target's limit theory at h = 1
    (``asymptotic_moments``, which checks the variance numerator by its
    name and rule in ``NUMERATOR_TARGET``): bias B h^a and variance
    V / (n delta h^b).  B^2 h^(2a) = V / (n delta h^b) gives
    h = (V / (B^2 n delta))^(1/(2a+b)), the 2/5 power in the interior
    (a = 1, b = 1/2) and the 1/5 power at a boundary (a = 2, b = 1).
    """
    if not (math.isfinite(curvature) and curvature != 0.0):
        raise ValueError("plug-in bandwidth needs nonzero curvature")
    mom = asymptotic_moments(
        x, 1.0, n, delta, target, curvature, numerator, p_hat, regime
    )
    exponent = -_rot_exponent(regime.kind)
    h = (mom.variance * 4.0 / (2.0 * mom.bias) ** 2 / (n * delta)) ** exponent
    return BandwidthChoice(h=float(h), method=BandwidthMethod.ASYMPTOTIC_PLUGIN)
