"""Local linear smoothing of the staggered regression triples.

At an evaluation point x the fit minimizes

    sum_i K(w_i) (y_i - a - b (d_i - x))^2

over (a, b), where K is a Gamma asymmetric or Gaussian kernel evaluated at
the lagged weight point w_i.  Writing S_k = sum_j K(w_j) (d_j - x)^k, the
intercept equals the ratio of effective-weight sums with

    omega_i = K(w_i) [S_2 - (d_i - x) S_1],

and these weights reproduce affine responses exactly and satisfy
sum_i omega_i (d_i - x) = 0.  Kernel weights span many orders of magnitude
for small bandwidths, so every reduction here goes through the exact
engine of ``summation``: each sum is the double ``math.fsum`` returns for
the same terms, whatever their order, so a zero weight or a dropped row
changes nothing else in the fit.

Estimating the intercept of the drift response recovers mu(x); the scaled
squared-increment response recovers the conditional second moment M(x);
the fourth and sixth moment responses recover the jump moment integrals
used to separate the jump component.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDesignError, EstimationError, SparseRegionError
from .kernels import KernelFamily, KernelSpec, weight_values
from .proxy import ProxySeries, RegressionTriples, Target
from .summation import CHUNK, ExactSums, exact_row_sums, exact_sum

# relative floor for the normal-equation determinant and absolute floor
# for total kernel mass
_DEGENERACY_RTOL = 1e-13
_MASS_FLOOR = 1e-300

# pilot bandwidth multiple for curvature estimation
_PILOT_FACTOR = 2.0


@dataclass(frozen=True, slots=True)
class LocalFit:
    """One weighted local linear fit, its kernel mass s0 = sum_j K(w_j)
    (``weight_mass``) and its sum_i omega_i / max_i omega_i (``effective_n``)."""

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


def _power_products(
    out: np.ndarray, k: np.ndarray, t: np.ndarray, y: np.ndarray, degree: int
) -> None:
    """Fill the rows of out with k t^j (j = 0..2 degree), then k y t^j
    (j = 0..degree), each power built as the iterated product k t t ..."""
    np.copyto(out[0], k)
    for j in range(1, 2 * degree + 1):
        np.multiply(out[j - 1], t, out=out[j])
    base = 2 * degree + 1
    np.multiply(k, y, out=out[base])
    for j in range(base + 1, base + degree + 1):
        np.multiply(out[j - 1], t, out=out[j])


def _power_sums(
    k: np.ndarray, t: np.ndarray, y: np.ndarray, degree: int
) -> tuple[list[float], list[float]]:
    """Kernel-weighted power sums of a local polynomial fit of this degree.

    Returns [sum k t^j for j = 0..2 degree] and [sum k y t^j for
    j = 0..degree], summed exactly.  The products are built CHUNK columns
    at a time into one block, so memory does not grow with the sample;
    only a term the engine leaves to ``math.fsum`` (non-finite, or 2^500
    or more) sends the whole rows through it at once.
    """
    n = k.size
    rows = 3 * degree + 2
    sums = ExactSums(rows, n)
    block = np.empty((rows, min(n, CHUNK)))
    for start in range(0, n, CHUNK):
        cols = slice(start, start + CHUNK)
        part = block[:, : min(CHUNK, n - start)]
        _power_products(part, k[cols], t[cols], y[cols], degree)
        sums.add(part)
    totals = sums.totals()
    if None in totals:
        block = np.empty((rows, n))
        _power_products(block, k, t, y, degree)
        totals = exact_row_sums(block)
    return totals[: 2 * degree + 1], totals[2 * degree + 1 :]


def _centred_design(
    k: np.ndarray, d: np.ndarray, x: float
) -> tuple[np.ndarray, float]:
    """Design points centred at x and their half-range over nonzero weights.

    Raises SparseRegionError when no weight clears the mass floor.
    """
    if not (k.size and float(np.max(k)) > _MASS_FLOOR):
        raise SparseRegionError(x)
    dx = d - x
    return dx, float(np.max(np.abs(dx[k > 0.0])))


def weighted_linear_fit(
    k: np.ndarray, d: np.ndarray, y: np.ndarray, x: float
) -> LocalFit:
    """Local linear fit at x from kernel weights k already computed.

    k, d and y align element by element; a weight of exactly 0 drops its
    observation from every sum, which is how block cross-validation holds
    a block out.  See the module docstring for the form of the fit.
    """
    dx, scale = _centred_design(k, d, x)
    (s0, s1, s2), (t0, t1) = _power_sums(k, dx, y, 1)
    if not (s0 > _MASS_FLOOR):
        raise SparseRegionError(x)
    det = s0 * s2 - s1 * s1
    if scale <= 0.0 or det <= _DEGENERACY_RTOL * (s0 * scale) ** 2:
        raise DegenerateDesignError(
            f"weighted design is collinear at x={x:g} (det={det:g})"
        )

    intercept = (s2 * t0 - s1 * t1) / det
    slope = (s0 * t1 - s1 * t0) / det

    omega = k * (s2 - dx * s1)
    omega_max = float(np.max(omega))
    effective_n = det / omega_max if omega_max > 0 else 0.0
    return LocalFit(
        intercept=float(intercept),
        slope=float(slope),
        weight_mass=float(s0),
        effective_n=float(effective_n),
    )


def local_linear_fit(
    triples: RegressionTriples, target: Target, kernel: KernelSpec, x: float
) -> LocalFit:
    """Fit the chosen response at x; see the module docstring for the form."""
    k = weight_values(kernel, triples.weight_points, x)
    return weighted_linear_fit(k, triples.design_points, triples.response(target), x)


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
    return exact_sum(vals) / p.values.size


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
    k = weight_values(pilot, triples.weight_points, x)
    dx, scale = _centred_design(k, triples.design_points, x)
    if scale <= 0.0:
        raise DegenerateDesignError(f"no design spread around x={x:g}")

    design, rhs = _power_sums(k, dx / scale, triples.response(target), 3)
    moment = np.array([[design[a + b] for b in range(4)] for a in range(4)])
    sv = np.linalg.svd(moment, compute_uv=False)
    if sv[-1] <= 1e-12 * sv[0]:
        raise DegenerateDesignError(
            f"local cubic design is rank deficient at x={x:g}"
        )
    coef = np.linalg.solve(moment, rhs)
    return float(2.0 * coef[2] / (scale * scale))
