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

from .errors import DegenerateDesignError, SparseRegionError
from .kernels import KernelFamily, KernelPlan, KernelSpec, outside_support
from .proxy import ProxySeries, RegressionTriples, Target, build_regression_triples
from .summation import CHUNK, exact_block_sums, exact_row_sums, exact_sum

# relative floor for the normal-equation determinant and absolute floor
# for total kernel mass
_DEGENERACY_RTOL = 1e-13
_MASS_FLOOR = 1e-300

# pilot bandwidth multiple for curvature estimation
_PILOT_FACTOR = 2.0

# terms one batch of fits sends through the exact engine: 8 points of a
# 1000-point series at 5 product rows per point (one line), 5 at 7 (two
# lines, a band's), 3 at 11 (a cubic).  A fixed count, not a multiple of
# CHUNK: a batch's weight rows are held whole, so this alone bounds them
_BATCH_TERMS = 40 * 1024


@dataclass(frozen=True, slots=True)
class LocalFit:
    """One weighted local linear fit and its kernel mass s0 = sum_j K(w_j)
    (``weight_mass``)."""

    intercept: float
    slope: float
    weight_mass: float


@dataclass(frozen=True)
class LocalFits:
    """Local linear fits of several targets at r points x.

    ``intercept`` and ``slope`` hold a row of r entries per target of
    ``targets``; the other arrays, one entry per point, depend only on the
    weights and the design and serve every target.  ``outside`` marks
    points below the Gamma support (not fitted), ``sparse`` fits with no
    kernel mass and ``degenerate`` fits whose weighted design is collinear
    (determinant ``det`` at or below the floor); the other entries of a
    failed fit mean nothing.  ``density`` is the kernel density of the
    series at each fitted point on a fitter built by
    ``LinearFitter.of_series``, and NaN elsewhere.
    """

    x: np.ndarray
    targets: tuple[Target, ...]
    intercept: np.ndarray
    slope: np.ndarray
    weight_mass: np.ndarray
    det: np.ndarray
    density: np.ndarray
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
            return outside_support(x)
        if self.sparse[i]:
            return SparseRegionError(x)
        if self.degenerate[i]:
            return DegenerateDesignError(
                f"weighted design is collinear at x={x:g} (det={self.det[i]:g})"
            )
        return None


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

    @classmethod
    def of(cls, fits: LocalFits, kernel: KernelSpec, target: Target) -> CurveEstimate:
        """One target's curve from ``fits``, NaN and a reason where they failed."""
        failures = {
            i: "outside Gamma kernel support" if fits.outside[i] else str(fits.error(i))
            for i in np.flatnonzero(~fits.ok).tolist()
        }
        j = fits.targets.index(target)
        est = np.where(fits.ok, [fits.intercept[j], fits.slope[j]], np.nan)
        return cls(fits.x, est[0], est[1], kernel, target, failures)


def _power_products(
    out: np.ndarray, k: np.ndarray, t: np.ndarray, ys: np.ndarray, degree: int
) -> None:
    """Fill the rows of out with k t^j (j = 0..2 degree), then for each
    response y of ys k y t^j (j = 0..degree), each power built as the
    iterated product k t t ..."""
    np.copyto(out[0], k)
    for j in range(1, 2 * degree + 1):
        np.multiply(out[j - 1], t, out=out[j])
    base = 2 * degree + 1
    for y in ys:
        np.multiply(k, y, out=out[base])
        for j in range(base + 1, base + degree + 1):
            np.multiply(out[j - 1], t, out=out[j])
        base += degree + 1


def _power_sums(
    k: np.ndarray, t: np.ndarray, ys: np.ndarray, degree: int
) -> tuple[list, list]:
    """Kernel-weighted power sums of a local polynomial fit of this degree.

    k and t hold one row of n terms, or a block of r rows of n terms each
    (one per evaluation point); ys holds m rows of n responses.  Returns
    [sum k t^j for j = 0..2 degree] and [sum k y t^j for j = 0..degree]
    for each y of ys in turn, summed exactly: one float per sum for a row,
    a list of r floats for a block.  The products are built CHUNK columns
    at a time into one buffer of min(n, CHUNK) doubles per product row, so
    memory does not grow with the sample; only rows the certified stage
    refuses go to ``math.fsum`` at their full width.
    """
    n = k.shape[-1]
    shape = (2 * degree + 1 + len(ys) * (degree + 1),) + k.shape[:-1]
    rows = math.prod(shape)
    products = np.empty(rows * min(n, CHUNK))

    def blocks():
        for start in range(0, n, CHUNK):
            cols = slice(start, start + CHUNK)
            width = min(CHUNK, n - start)
            part = products[: rows * width].reshape(shape + (width,))
            _power_products(part, k[..., cols], t[..., cols], ys[:, cols], degree)
            yield part.reshape(rows, width)

    totals = np.reshape(exact_block_sums(rows, n, blocks), shape).tolist()
    return totals[: 2 * degree + 1], totals[2 * degree + 1 :]


class LinearFitter:
    """Local polynomial fits of the triples' responses on their design
    points, with kernel weights of one family at their weight points.

    ``fits`` fits lines to several targets and ``curvatures`` a cubic to
    one at every point of xs, with the weights of one ``KernelPlan``
    evaluated a batch of points at a time, so memory does not grow with
    len(xs).  Points below the Gamma support are flagged, not fitted; an
    empty, multidimensional or non-finite xs raises ValueError.  Each
    point's result is the one it gives alone, whatever its batch and the
    other targets.  ``of_series(family, p)`` plans all n proxy values: the
    fits read the first n - 2 columns of each row, the weight points' row
    bit for bit, and ``fits`` sums the whole row into the density of p,
    so a band weighs each point once at its bandwidth.
    """

    def __init__(self, family: KernelFamily, triples: RegressionTriples):
        self.plan = KernelPlan(family, triples.weight_points)
        self.triples = triples

    @classmethod
    def of_series(cls, family: KernelFamily, p: ProxySeries) -> LinearFitter:
        """A fitter of p's triples whose plan holds every proxy value."""
        fitter = cls.__new__(cls)
        fitter.triples = build_regression_triples(p)
        fitter.plan = KernelPlan(family, p.values)
        return fitter

    def _points(self, xs) -> tuple[np.ndarray, np.ndarray]:
        """xs as an array, and whether each point lies below the support."""
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 1 or xs.size == 0:
            raise ValueError("grid must be a nonempty one-dimensional array")
        if not np.isfinite(xs).all():
            x = float(xs[~np.isfinite(xs)][0])
            raise ValueError(f"evaluation point must be finite, got {x!r}")
        return xs, (self.plan.family is KernelFamily.GAMMA) & (xs < 0)

    def _batches(self, h, xs, outside, rows: int, held=None, density=None):
        """(indices, weights, d - x, live, half-range) for the points of xs
        not outside, _BATCH_TERMS terms a batch at ``rows`` product rows per
        point: each plan row's first len(triples) columns.  On a series plan
        the whole rows' exact means go to ``density``, if given, unheld."""
        fitted = np.flatnonzero(~outside)
        d, n = self.triples.design_points, len(self.triples)
        batch = max(_BATCH_TERMS // (rows * max(n, 1)), 1)
        for start in range(0, fitted.size, batch):
            idx = fitted[start : start + batch]
            w = self.plan.weights(h, xs[idx])
            if density is not None and self.plan.size > n:
                density[idx] = np.divide(exact_row_sums(w), self.plan.size)
            k = w[:, :n]
            if held is not None:
                for row, (a, b) in zip(k, np.asarray(held)[idx].tolist()):
                    row[a:b] = 0.0
            dx = d - xs[idx, None]
            # live: a weight above the mass floor; scale: max |dx| where k > 0
            live = np.maximum.reduce(k, axis=-1, initial=0.0) > _MASS_FLOOR
            scale = np.where(k > 0.0, np.abs(dx), 0.0).max(axis=-1, initial=0.0)
            yield idx, k, dx, live, scale

    def fits(self, h: float, xs, targets, held=None) -> LocalFits:
        """Local linear fits of each target of ``targets`` at bandwidth h
        from one weight block: s0, s1, s2 and the flags once per point, t0
        and t1 once per target.  ``held[i] = (a, b)``, when given, zeroes
        point i's weights on that slice, which drops those observations
        (how block cross-validation holds a block out)."""
        xs, outside = self._points(xs)
        m, r = len(targets), xs.size
        ys = np.array([self.triples.response(target) for target in targets])
        fits = LocalFits(
            xs, tuple(targets), *np.full((2, m, r), np.nan), *np.full((3, r), np.nan),
            outside, *np.zeros((2, r), bool),
        )
        batches = self._batches(h, xs, outside, 3 + 2 * m, held, fits.density)
        for idx, k, dx, live, scale in batches:
            if not live.all():
                # rows without kernel mass are summed as zeros, which no
                # term can turn into an exception, and then flagged sparse
                k = np.where(live[:, None], k, 0.0)
            design, rhs = _power_sums(k, dx, ys, 1)
            s0, s1, s2 = np.array(design)
            t0, t1 = np.array(rhs).reshape(m, 2, -1).transpose(1, 0, 2)
            with np.errstate(all="ignore"):
                det = fits.det[idx] = s0 * s2 - s1 * s1
                fits.intercept[:, idx] = (s2 * t0 - s1 * t1) / det
                fits.slope[:, idx] = (s0 * t1 - s1 * t0) / det
                floor = s0 * scale
                flat = (scale <= 0.0) | (det <= _DEGENERACY_RTOL * (floor * floor))
            fits.weight_mass[idx] = s0
            sparse = fits.sparse[idx] = ~(live & (s0 > _MASS_FLOOR))
            fits.degenerate[idx] = flat & ~sparse
        return fits

    def curvatures(self, h: float, xs, target: Target) -> tuple[np.ndarray, list]:
        """Second derivatives of the target by local cubic fits at the
        pilot bandwidth _PILOT_FACTOR h, since curvature needs a wider
        window than the level fit: the values (NaN where a fit failed) and
        each point's error (None where it succeeded).  Each row's design is
        rescaled by its half-range, which keeps the 4x4 moment matrix well
        conditioned.
        """
        xs, outside = self._points(xs)
        values = np.full(xs.size, np.nan)
        errors = [outside_support(x) if o else None for x, o in zip(xs, outside)]
        pilot = _PILOT_FACTOR * h
        ys = self.triples.response(target)[None]
        for idx, k, dx, live, scale in self._batches(pilot, xs, outside, 11):
            # a row without mass or spread is summed with t = 0 and fails
            spread = live & (scale > 0.0)
            t = dx / np.where(spread, scale, np.inf)[:, None]
            design, rhs = _power_sums(k, t, ys, 3)
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
    fits = LinearFitter(kernel.family, triples).fits(kernel.bandwidth, [x], [target])
    if not fits.ok[0]:
        raise fits.error(0)
    return LocalFit(
        float(fits.intercept[0, 0]), float(fits.slope[0, 0]), float(fits.weight_mass[0])
    )


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
    degenerate local design are recorded in ``failures`` with NaN values,
    even when that is every point; only an empty or non-finite grid
    raises (ValueError).
    """
    fits = LinearFitter(kernel.family, triples).fits(kernel.bandwidth, grid, [target])
    return CurveEstimate.of(fits, kernel, target)


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
    """Kernel density estimate of the proxy at x, (1/n) sum_j K(value_j),
    from its one weight row: ``LocalFits.density`` on any series, also one
    too short for triples.  A non-finite x, or a Gamma x below 0, is an
    argument error (ValueError)."""
    row = KernelPlan(kernel.family, p.values).weights(kernel.bandwidth, x)[0]
    return exact_sum(row) / p.values.size


def estimate_second_derivative(
    triples: RegressionTriples, target: Target, kernel: KernelSpec, x: float
) -> float:
    """Second derivative of the target function at x via a local cubic fit
    at twice the kernel's bandwidth: the one-point case of
    ``LinearFitter.curvatures``."""
    fitter = LinearFitter(kernel.family, triples)
    values, errors = fitter.curvatures(kernel.bandwidth, [x], target)
    if errors[0] is not None:
        # popped: no reference cycle keeps this frame and its fitter alive
        raise errors.pop()
    return float(values[0])
