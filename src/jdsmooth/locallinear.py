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

import math
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
    """One weighted local linear fit and its kernel mass s0 = sum_j K(w_j)
    (``weight_mass``)."""

    intercept: float
    slope: float
    weight_mass: float


@dataclass(frozen=True)
class LocalFits:
    """Local linear fits at r points x, as arrays of r entries.

    ``sparse`` marks fits with no kernel mass and ``degenerate`` fits
    whose weighted design is collinear (determinant ``det`` at or below
    the floor); the other entries of a failed fit mean nothing.  ``at(i)``
    gives row i as a ``LocalFit`` or raises the error it failed with.
    """

    x: np.ndarray
    intercept: np.ndarray
    slope: np.ndarray
    weight_mass: np.ndarray
    det: np.ndarray
    sparse: np.ndarray
    degenerate: np.ndarray

    @property
    def ok(self) -> np.ndarray:
        return ~(self.sparse | self.degenerate)

    def at(self, i: int) -> LocalFit:
        x = float(self.x[i])
        if self.sparse[i]:
            raise SparseRegionError(x)
        if self.degenerate[i]:
            raise DegenerateDesignError(
                f"weighted design is collinear at x={x:g} (det={self.det[i]:g})"
            )
        return LocalFit(
            intercept=float(self.intercept[i]),
            slope=float(self.slope[i]),
            weight_mass=float(self.weight_mass[i]),
        )


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


class _Scratch:
    """A float array kept between calls and grown to the largest size asked for."""

    def __init__(self):
        self._array = np.empty(0)

    def take(self, size: int) -> np.ndarray:
        if self._array.size < size:
            self._array = np.empty(size)
        return self._array[:size]


def _power_sums(
    k: np.ndarray,
    t: np.ndarray,
    y: np.ndarray,
    degree: int,
    scratch: _Scratch | None = None,
) -> tuple[list, list]:
    """Kernel-weighted power sums of a local polynomial fit of this degree.

    k and t hold one row of n terms, or a block of r rows of n terms each
    (one per evaluation point); y holds the n responses.  Returns [sum k
    t^j for j = 0..2 degree] and [sum k y t^j for j = 0..degree], summed
    exactly: one float per sum for a row, a list of r floats for a block.
    The products are built CHUNK columns at a time into one work array
    (taken from ``scratch`` when given), so memory does not grow with the
    sample; only a term the engine leaves to ``math.fsum`` (non-finite,
    or 2^500 or more) sends the whole rows through it at once.
    """
    n = k.shape[-1]
    shape = (3 * degree + 2,) + k.shape[:-1]
    rows = math.prod(shape)
    size = rows * min(n, CHUNK)
    work = (scratch or _Scratch()).take(5 * size)
    sums = ExactSums(rows, n)
    for start in range(0, n, CHUNK):
        cols = slice(start, start + CHUNK)
        width = min(CHUNK, n - start)
        part = work[: rows * width].reshape(shape + (width,))
        _power_products(part, k[..., cols], t[..., cols], y[cols], degree)
        sums.add(part.reshape(rows, width), work[size:])
    totals = sums.totals()
    if None in totals:
        block = np.empty(shape + (n,))
        _power_products(block, k, t, y, degree)
        totals = exact_row_sums(block.reshape(rows, n))
    totals = np.reshape(totals, shape).tolist()
    return totals[: 2 * degree + 1], totals[2 * degree + 1 :]


def _weighted_range(k: np.ndarray, dx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether each row of weights k clears the mass floor, and the row's
    half-range max |dx| over its nonzero weights (0 where there are none)."""
    live = np.maximum.reduce(k, axis=-1, initial=0.0) > _MASS_FLOOR
    scale = np.where(k > 0.0, np.abs(dx), 0.0).max(axis=-1, initial=0.0)
    return live, scale


class LinearFitter:
    """Local linear fits of the responses y on the design points d.

    ``fits(k, x)`` fits at the points x from one row of kernel weights per
    point, shape (len(x), n), each row aligned element by element with d
    and y; a weight of exactly 0 drops its observation from that row's
    sums, which is how block cross-validation holds a block out.  The rows
    go through one exact engine together, so each fit is the one its row
    gives alone.  The fitter keeps the engine's work array between calls,
    so a run of blocks allocates it once.
    """

    def __init__(self, d: np.ndarray, y: np.ndarray):
        self.d = d
        self.y = y
        self._scratch = _Scratch()

    def fits(self, k: np.ndarray, x) -> LocalFits:
        x = np.asarray(x, dtype=float)
        dx = self.d - x[:, None]
        live, scale = _weighted_range(k, dx)
        if not live.all():
            # rows without kernel mass are summed as zeros, which no term
            # can turn into an exception, and then flagged sparse
            k = np.where(live[:, None], k, 0.0)
        design, rhs = _power_sums(k, dx, self.y, 1, self._scratch)
        s0, s1, s2, t0, t1 = np.array(design + rhs)
        # squared by Python's float ** (libm pow), as the floor always was:
        # numpy's x * x differs from it in the last bit for about 0.1% of
        # doubles
        floor = [(a * b) ** 2 for a, b in zip(s0.tolist(), scale.tolist())]
        with np.errstate(all="ignore"):
            det = s0 * s2 - s1 * s1
            intercept = (s2 * t0 - s1 * t1) / det
            slope = (s0 * t1 - s1 * t0) / det
        sparse = ~(live & (s0 > _MASS_FLOOR))
        flat = (scale <= 0.0) | (det <= _DEGENERACY_RTOL * np.array(floor))
        return LocalFits(
            x=x, intercept=intercept, slope=slope, weight_mass=s0, det=det,
            sparse=sparse, degenerate=flat & ~sparse,
        )


def weighted_linear_fit(
    k: np.ndarray, d: np.ndarray, y: np.ndarray, x: float
) -> LocalFit:
    """Local linear fit at x from kernel weights k already computed.

    The one-row case of ``LinearFitter.fits``; raises SparseRegionError or
    DegenerateDesignError where that fit fails.  See the module docstring
    for the form of the fit.
    """
    return LinearFitter(d, y).fits(k[None, :], [x]).at(0)


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
    dx = triples.design_points - x
    live, scale = _weighted_range(k, dx)
    if not live:
        raise SparseRegionError(x)
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
