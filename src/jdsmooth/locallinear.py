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
from .kernels import KernelFamily, KernelPlan, KernelSpec, weight_values
from .proxy import ProxySeries, RegressionTriples, Target
from .summation import CHUNK, ExactSums, exact_row_sums, exact_sum

# relative floor for the normal-equation determinant and absolute floor
# for total kernel mass
_DEGENERACY_RTOL = 1e-13
_MASS_FLOOR = 1e-300

# pilot bandwidth multiple for curvature estimation
_PILOT_FACTOR = 2.0

# terms one batch of fits sends through the exact engine: 8 points of a
# 1000-point series at 5 product rows per point (a line), 3 at 11 (a cubic)
_BATCH_TERMS = 40 * CHUNK


def _outside_support(x) -> ValueError:
    msg = "Gamma kernel evaluation point must be nonnegative, got"
    return ValueError(f"{msg} {float(x)!r}")


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

    ``outside`` marks points below the Gamma support (not fitted),
    ``sparse`` fits with no kernel mass and ``degenerate`` fits whose
    weighted design is collinear (determinant ``det`` at or below the
    floor); the other entries of a failed fit mean nothing.  ``at(i)``
    gives row i as a ``LocalFit`` or raises the error it failed with.
    """

    x: np.ndarray
    intercept: np.ndarray
    slope: np.ndarray
    weight_mass: np.ndarray
    det: np.ndarray
    outside: np.ndarray
    sparse: np.ndarray
    degenerate: np.ndarray

    @property
    def ok(self) -> np.ndarray:
        return ~(self.outside | self.sparse | self.degenerate)

    def error(self, i: int) -> Exception | None:
        """The error fit i failed with, or None where it succeeded."""
        x = float(self.x[i])
        if self.outside[i]:
            return _outside_support(x)
        if self.sparse[i]:
            return SparseRegionError(x)
        if self.degenerate[i]:
            return DegenerateDesignError(
                f"weighted design is collinear at x={x:g} (det={self.det[i]:g})"
            )
        return None

    def at(self, i: int) -> LocalFit:
        exc = self.error(i)
        if exc is not None:
            raise exc
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


def _power_sums(
    k: np.ndarray,
    t: np.ndarray,
    y: np.ndarray,
    degree: int,
    work: np.ndarray | None = None,
) -> tuple[list, list]:
    """Kernel-weighted power sums of a local polynomial fit of this degree.

    k and t hold one row of n terms, or a block of r rows of n terms each
    (one per evaluation point); y holds the n responses.  Returns [sum k
    t^j for j = 0..2 degree] and [sum k y t^j for j = 0..degree], summed
    exactly: one float per sum for a row, a list of r floats for a block.
    The products are built CHUNK columns at a time into one work array
    (``work`` when given, at least 5 (3 degree + 2) r min(n, CHUNK) long),
    so memory does not grow with the sample; only a term the engine leaves
    to ``math.fsum`` (non-finite, or 2^500 or more) sends the whole rows
    through it at once.
    """
    n = k.shape[-1]
    shape = (3 * degree + 2,) + k.shape[:-1]
    rows = math.prod(shape)
    size = rows * min(n, CHUNK)
    work = np.empty(5 * size) if work is None else work
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


class LinearFitter:
    """Local polynomial fits of the responses y on the design points d,
    with kernel weights of one family at the weight points u.

    ``fits`` fits a line and ``curvatures`` a cubic at every point of xs,
    with the weights of one ``KernelPlan`` evaluated a batch of points at
    a time, so memory does not grow with len(xs).  Points below the Gamma
    support are flagged, not fitted; a non-finite point raises ValueError.
    Each point's result is the one it gives alone, whatever its batch.
    """

    def __init__(self, family: KernelFamily, u, d: np.ndarray, y: np.ndarray):
        self.plan = KernelPlan(family, u)
        self.d = d
        self.y = y

    def _points(self, xs) -> tuple[np.ndarray, np.ndarray]:
        """xs as an array, and whether each point lies below the support."""
        xs = np.asarray(xs, dtype=float)
        if not np.isfinite(xs).all():
            x = float(xs[~np.isfinite(xs)][0])
            raise ValueError(f"evaluation point must be finite, got {x!r}")
        return xs, (self.plan.family is KernelFamily.GAMMA) & (xs < 0)

    def _batches(self, h, xs, outside, rows: int, held=None):
        """(indices, weights, d - x, live, half-range, work array) for the
        points of xs not outside, _BATCH_TERMS terms a batch at ``rows``
        product rows per point."""
        fitted = np.flatnonzero(~outside)
        n = self.d.size
        batch = max(_BATCH_TERMS // (rows * max(n, 1)), 1)
        # the engine's work array, allocated once per call
        work = np.empty(5 * rows * min(batch, fitted.size) * min(n, CHUNK))
        for start in range(0, fitted.size, batch):
            idx = fitted[start : start + batch]
            k = self.plan.weights(h, xs[idx])
            if held is not None:
                for row, (a, b) in zip(k, np.asarray(held)[idx].tolist()):
                    row[a:b] = 0.0
            dx = self.d - xs[idx, None]
            # live: a weight above the mass floor; scale: max |dx| where k > 0
            live = np.maximum.reduce(k, axis=-1, initial=0.0) > _MASS_FLOOR
            scale = np.where(k > 0.0, np.abs(dx), 0.0).max(axis=-1, initial=0.0)
            yield idx, k, dx, live, scale, work

    def fits(self, h: float, xs, held=None) -> LocalFits:
        """Local linear fits at bandwidth h.  ``held[i] = (a, b)``, when
        given, zeroes point i's weights on that slice, which drops those
        observations (how block cross-validation holds a block out)."""
        xs, outside = self._points(xs)
        nans, flags = np.full((4, xs.size), np.nan), np.zeros((2, xs.size), bool)
        fits = LocalFits(xs, *nans, outside, *flags)
        for idx, k, dx, live, scale, work in self._batches(h, xs, outside, 5, held):
            if not live.all():
                # rows without kernel mass are summed as zeros, which no
                # term can turn into an exception, and then flagged sparse
                k = np.where(live[:, None], k, 0.0)
            design, rhs = _power_sums(k, dx, self.y, 1, work)
            s0, s1, s2, t0, t1 = np.array(design + rhs)
            # Python's float ** (libm pow), as always: numpy's x * x differs
            # from it in the last bit for about 0.1% of doubles
            floor = [(a * b) ** 2 for a, b in zip(s0.tolist(), scale.tolist())]
            with np.errstate(all="ignore"):
                det = fits.det[idx] = s0 * s2 - s1 * s1
                fits.intercept[idx] = (s2 * t0 - s1 * t1) / det
                fits.slope[idx] = (s0 * t1 - s1 * t0) / det
            fits.weight_mass[idx] = s0
            sparse = fits.sparse[idx] = ~(live & (s0 > _MASS_FLOOR))
            flat = (scale <= 0.0) | (det <= _DEGENERACY_RTOL * np.array(floor))
            fits.degenerate[idx] = flat & ~sparse
        return fits

    def curvatures(self, h: float, xs) -> tuple[np.ndarray, list]:
        """Second derivatives of the response by local cubic fits at the
        pilot bandwidth _PILOT_FACTOR h, since curvature needs a wider
        window than the level fit: the values (NaN where a fit failed) and
        each point's error (None where it succeeded).  Each row's design is
        rescaled by its half-range, which keeps the 4x4 moment matrix well
        conditioned.
        """
        xs, outside = self._points(xs)
        values = np.full(xs.size, np.nan)
        errors = [_outside_support(x) if o else None for x, o in zip(xs, outside)]
        pilot = _PILOT_FACTOR * h
        for idx, k, dx, live, scale, work in self._batches(pilot, xs, outside, 11):
            # a row without mass or spread is summed with t = 0 and fails
            spread = live & (scale > 0.0)
            t = dx / np.where(spread, scale, np.inf)[:, None]
            design, rhs = _power_sums(k, t, self.y, 3, work)
            # Hankel index: entry (a, b) of the moment matrix is sum k t^(a + b)
            moment = np.array(design).T[:, np.add.outer(range(4), range(4))]
            sv = np.linalg.svd(moment, compute_uv=False)
            full = spread & (sv[:, -1] > 1e-12 * sv[:, 0])
            coef = np.linalg.solve(moment[full], np.array(rhs).T[full, :, None])
            values[idx[full]] = 2.0 * coef[:, 2, 0] / (scale[full] * scale[full])
            for j in np.flatnonzero(~full).tolist():
                x = float(xs[idx[j]])
                msg = f"local cubic design is rank deficient at x={x:g}"
                if not spread[j]:
                    msg = f"no design spread around x={x:g}"
                errors[idx[j]] = (
                    DegenerateDesignError(msg) if live[j] else SparseRegionError(x)
                )
        return values, errors


def local_linear_fit(
    triples: RegressionTriples, target: Target, kernel: KernelSpec, x: float
) -> LocalFit:
    """Fit the chosen response at x; see the module docstring for the form."""
    u, d, y = triples.weight_points, triples.design_points, triples.response(target)
    return LinearFitter(kernel.family, u, d, y).fits(kernel.bandwidth, [x]).at(0)


def estimate_curve(
    triples: RegressionTriples,
    kernel: KernelSpec,
    grid,
    target: Target,
) -> CurveEstimate:
    """Estimate of any target's curve over a grid of evaluation points.

    One ``LinearFitter.fits`` call fits the grid; each value, slope and
    failure reason is what ``local_linear_fit`` gives at that point.
    Points outside the kernel's support, in sparse regions or with a
    degenerate local design are recorded as failures; EstimationError is
    raised only when every point fails, ValueError at a non-finite point.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("grid must be a nonempty one-dimensional array")
    u, d, y = triples.weight_points, triples.design_points, triples.response(target)
    fits = LinearFitter(kernel.family, u, d, y).fits(kernel.bandwidth, grid)
    failures = {
        i: "outside Gamma kernel support" if fits.outside[i] else str(fits.error(i))
        for i in np.flatnonzero(~fits.ok).tolist()
    }
    est = np.where(fits.ok, [fits.intercept, fits.slope], np.nan)
    if len(failures) == grid.size:
        raise EstimationError(
            f"estimation failed at every one of the {grid.size} grid points"
        )
    return CurveEstimate(
        grid=grid, values=est[0], slopes=est[1], kernel=kernel, target=target,
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
    triples: RegressionTriples, target: Target, kernel: KernelSpec, x: float
) -> float:
    """Second derivative of the target function at x via a local cubic fit
    at twice the kernel's bandwidth: the one-point case of
    ``LinearFitter.curvatures``."""
    u, d, y = triples.weight_points, triples.design_points, triples.response(target)
    fitter = LinearFitter(kernel.family, u, d, y)
    values, errors = fitter.curvatures(kernel.bandwidth, [x])
    if errors[0] is not None:
        # popped: no reference cycle keeps this frame and its fitter alive
        raise errors.pop()
    return float(values[0])
