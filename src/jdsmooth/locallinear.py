"""Local linear smoothing of the staggered regression triples.

At an evaluation point x the fit minimizes

    sum_i K(w_i) (y_i - a - b (d_i - x))^2

over (a, b), where K is a Gamma asymmetric or Gaussian kernel evaluated at
the lagged weight point w_i.  Writing S_k = sum_j K(w_j) (d_j - x)^k, the
intercept equals the ratio of effective-weight sums with

    omega_i = K(w_i) [S_2 - (d_i - x) S_1],

and these weights reproduce affine responses exactly and satisfy
sum_i omega_i (d_i - x) = 0.  Kernel weights span many orders of magnitude
for small bandwidths, so every reduction here goes through compensated
(exact) summation.

Estimating the intercept of the drift response recovers mu(x); the scaled
squared-increment response recovers the conditional second moment M(x);
the fourth and sixth moment responses recover the jump moment integrals
used to separate the jump component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDesignError, EstimationError, SparseRegionError
from .kernels import KernelFamily, KernelSpec, weight_values
from .proxy import ProxySeries, RegressionTriples, Target

# relative floor for the normal-equation determinant and absolute floor
# for total kernel mass
_DEGENERACY_RTOL = 1e-13
_MASS_FLOOR = 1e-300

# pilot bandwidth multiple for curvature estimation
_PILOT_FACTOR = 2.0


@dataclass(frozen=True, slots=True)
class LocalFit:
    """Intercept and slope of one weighted local linear fit."""

    intercept: float
    slope: float
    weight_mass: float
    effective_n: float


@dataclass(frozen=True)
class CurveEstimate:
    """Pointwise estimates over a grid, with per-point failure records."""

    grid: np.ndarray
    values: np.ndarray
    slopes: np.ndarray
    kernel: KernelSpec
    target: Target
    failures: dict[int, str] = field(default_factory=dict)

    def __post_init__(self):
        if not (len(self.grid) == len(self.values) == len(self.slopes)):
            raise ValueError("grid, values and slopes must have equal length")


def _csum(arr: np.ndarray) -> float:
    """Compensated (exact) sum of a float array."""
    return math.fsum(arr.tolist())


def _fit_arrays(
    w: np.ndarray, d: np.ndarray, y: np.ndarray, kernel: KernelSpec, x: float
) -> LocalFit:
    k = weight_values(kernel, w, x)
    kmax = float(np.max(k)) if k.size else 0.0
    if not (kmax > _MASS_FLOOR):
        raise SparseRegionError(x)

    dx = d - x
    s0 = _csum(k)
    s1 = _csum(k * dx)
    s2 = _csum(k * dx * dx)
    if not (s0 > _MASS_FLOOR):
        raise SparseRegionError(x)

    active = k > 0.0
    scale = float(np.max(np.abs(dx[active]))) if np.any(active) else 0.0
    det = s0 * s2 - s1 * s1
    if scale <= 0.0 or det <= _DEGENERACY_RTOL * (s0 * scale) ** 2:
        raise DegenerateDesignError(
            f"weighted design is collinear at x={x:g} (det={det:g})"
        )

    t0 = _csum(k * y)
    t1 = _csum(k * y * dx)
    intercept = (s2 * t0 - s1 * t1) / det
    slope = (s0 * t1 - s1 * t0) / det

    omega = k * (s2 - dx * s1)
    omega_max = float(np.max(omega))
    effective_n = det / omega_max if omega_max > 0 else 0.0
    return LocalFit(
        intercept=float(intercept),
        slope=float(slope),
        weight_mass=float(det),
        effective_n=float(effective_n),
    )


def local_linear_fit(
    triples: RegressionTriples, target: Target, kernel: KernelSpec, x: float
) -> LocalFit:
    """Fit the chosen response at x; see the module docstring for the form."""
    y = triples.response(target)
    return _fit_arrays(triples.weight_points, triples.design_points, y, kernel, x)


def estimate_curve(
    triples: RegressionTriples,
    kernel: KernelSpec,
    grid,
    target: Target,
) -> CurveEstimate:
    """Estimate of any target's curve over a grid of evaluation points.

    Points outside the kernel's support, in sparse regions or with a
    degenerate local design are recorded as failures; EstimationError is
    raised only when every point fails.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("grid must be a nonempty one-dimensional array")
    values = np.full(grid.size, np.nan)
    slopes = np.full(grid.size, np.nan)
    failures: dict[int, str] = {}
    for i, x in enumerate(grid):
        if kernel.family is KernelFamily.GAMMA and x < 0:
            failures[i] = "outside Gamma kernel support"
            continue
        try:
            fit = local_linear_fit(triples, target, kernel, float(x))
        except (SparseRegionError, DegenerateDesignError) as exc:
            failures[i] = str(exc)
            continue
        values[i] = fit.intercept
        slopes[i] = fit.slope
    if len(failures) == grid.size:
        raise EstimationError(
            f"estimation failed at every one of the {grid.size} grid points"
        )
    return CurveEstimate(
        grid=grid, values=values, slopes=slopes, kernel=kernel, target=target,
        failures=failures,
    )


def estimate_drift_curve(
    triples: RegressionTriples, kernel: KernelSpec, grid
) -> CurveEstimate:
    """Drift estimate mu_hat over a grid of evaluation points."""
    return estimate_curve(triples, kernel, grid, Target.DRIFT)


def estimate_m_curve(
    triples: RegressionTriples, kernel: KernelSpec, grid
) -> CurveEstimate:
    """Conditional second moment estimate M_hat over a grid.

    Values are reported as fitted, including any negative dips; interval
    construction clips to the parameter space instead.
    """
    return estimate_curve(triples, kernel, grid, Target.COND_VARIANCE)


def estimate_moment_curve(
    triples: RegressionTriples, kernel: KernelSpec, grid, order: int
) -> CurveEstimate:
    """Fourth or sixth conditional moment curve (jump identification inputs)."""
    if order == 4:
        target = Target.FOURTH_MOMENT
    elif order == 6:
        target = Target.SIXTH_MOMENT
    else:
        raise ValueError(f"order must be 4 or 6, got {order!r}")
    return estimate_curve(triples, kernel, grid, target)


def estimate_density(p: ProxySeries, kernel: KernelSpec, x: float) -> float:
    """Kernel density estimate of the proxy's stationary law at x.

    Gamma family: (1/n) sum_j K_Gamma(value_j; x, h).  Gaussian family:
    (1/(n h)) sum_j phi((x - value_j)/h).
    """
    vals = weight_values(kernel, p.values, x)
    return float(_csum(vals) / p.values.size)


def estimate_second_derivative(
    triples: RegressionTriples,
    target: Target,
    kernel: KernelSpec,
    x: float,
    pilot_h: float | None = None,
) -> float:
    """Second derivative of the target function at x via a local cubic fit.

    Runs at a pilot bandwidth (default twice the kernel's) because
    curvature needs a wider window than the level fit.  The cubic basis is
    rescaled by the local design range before solving, which keeps the
    4x4 moment matrix well conditioned.
    """
    if pilot_h is None:
        pilot_h = _PILOT_FACTOR * kernel.bandwidth
    pilot = KernelSpec(kernel.family, float(pilot_h))
    w = triples.weight_points
    d = triples.design_points
    y = triples.response(target)

    k = weight_values(pilot, w, x)
    kmax = float(np.max(k)) if k.size else 0.0
    if not (kmax > _MASS_FLOOR):
        raise SparseRegionError(x)
    active = k > 0.0
    dx = d - x
    scale = float(np.max(np.abs(dx[active]))) if np.any(active) else 0.0
    if scale <= 0.0:
        raise DegenerateDesignError(f"no design spread around x={x:g}")

    t = dx / scale
    powers = [np.ones_like(t), t, t * t, t * t * t]
    moment = np.empty((4, 4))
    rhs = np.empty(4)
    # moment[a, b] needs sum k * t^(a+b); precompute the six distinct sums
    tp = np.ones_like(t)
    psums = []
    for _ in range(7):
        psums.append(_csum(k * tp))
        tp = tp * t
    for a in range(4):
        rhs[a] = _csum(k * y * powers[a])
        for b in range(4):
            moment[a, b] = psums[a + b]

    sv = np.linalg.svd(moment, compute_uv=False)
    if sv[-1] <= 1e-12 * sv[0]:
        raise DegenerateDesignError(
            f"local cubic design is rank deficient at x={x:g}"
        )
    coef = np.linalg.solve(moment, rhs)
    return float(2.0 * coef[2] / (scale * scale))
