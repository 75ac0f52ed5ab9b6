"""Gamma asymmetric and Gaussian symmetric smoothing kernels.

The Gamma kernel at design point x >= 0 with bandwidth h is the
Gamma(x/h + 1, h) density evaluated at the data point u,

    K(u) = u^(x/h) exp(-u/h) / (h^(x/h+1) Gamma(x/h + 1)),   u >= 0,

so its support never extends past the origin and its shape adapts to the
design point: mean x + h, variance x h + h^2.  Shape parameters x/h grow
without bound as h shrinks, hence every evaluation goes through log space
and underflows cleanly to zero instead of raising.

A design point is treated as interior when x/h is large and as a boundary
point with kappa = x/h otherwise; the asymptotic variance of estimators
differs between the two regimes by the constant computed in
``boundary_variance_constant``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NONNEGATIVE, POSITIVE, checked

DEFAULT_REGIME_THRESHOLD = 20.0


class KernelFamily(Enum):
    GAMMA = "gamma"
    GAUSSIAN = "gaussian"


@dataclass(frozen=True, slots=True)
class KernelSpec:
    """A kernel family paired with a fixed bandwidth."""

    family: KernelFamily
    bandwidth: float

    def __post_init__(self):
        h = checked("bandwidth", self.bandwidth, POSITIVE)
        object.__setattr__(self, "bandwidth", h)


class RegimeKind(Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"


@dataclass(frozen=True, slots=True)
class PointRegime:
    """Interior/boundary classification of an evaluation point.

    kappa is the ratio x/h and is carried only for boundary points.
    """

    kind: RegimeKind
    kappa: float | None = None

    def __post_init__(self):
        if self.kind is RegimeKind.BOUNDARY:
            kappa = checked("kappa", self.kappa, NONNEGATIVE)
            object.__setattr__(self, "kappa", kappa)


def outside_support(x) -> ValueError:
    """The error for a Gamma kernel evaluation point x below the support."""
    msg = "Gamma kernel evaluation point must be nonnegative, got"
    return ValueError(f"{msg} {float(x)!r}")


class KernelPlan:
    """Kernel weights of one array of data points u at many evaluation points.

    The plan checks u once and holds only what depends on u: for the Gamma
    family the support (u >= 0) and its log u, so a block of evaluation
    points costs one fused expression and one ``exp``.  ``weights``
    returns one row per evaluation point in the operation order of the
    scalar formulas,

        Gamma:    exp(((shape log u - u/h) - (shape + 1) log h)
                      - lgamma(shape + 1)),   shape = x/h,
        Gaussian: exp(-0.5 z z) / (h sqrt(2 pi)),   z = (x - u)/h,

    so a row is bit for bit the same whatever block it is evaluated in.  A
    shape of 0 gives a zero power term, even at u = 0; data below the
    Gamma support get weight 0.  A non-finite evaluation point is an
    argument error (ValueError) in either family, as is a Gamma point
    below 0.
    """

    def __init__(self, family: KernelFamily, u):
        uu = np.ravel(np.asarray(u, dtype=float))
        if not np.all(np.isfinite(uu)):
            raise ValueError("data points u must be finite")
        self.family = family
        self.size = uu.size
        self._u = uu
        if family is KernelFamily.GAMMA:
            support = uu >= 0
            # None: every point is in the support and rows need no scatter
            self._support = None if support.all() else support
            self._u = uu if self._support is None else uu[support]
            with np.errstate(divide="ignore"):
                self._log_u = np.log(self._u)

    def weights(self, h: float, xs) -> np.ndarray:
        """Kernel weights at bandwidth h, shape (len(xs), u.size)."""
        h = checked("bandwidth h", h, POSITIVE)
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        finite = np.isfinite(xs)
        if not finite.all():
            x = float(xs[~finite][0])
            raise ValueError(f"kernel evaluation point must be finite, got {x!r}")
        if self.family is KernelFamily.GAUSSIAN:
            z = (xs[:, None] - self._u) / h
            with np.errstate(under="ignore"):
                return np.exp(-0.5 * z * z) / (h * math.sqrt(2.0 * math.pi))
        xs = xs.tolist()
        for x in xs:
            if not x >= 0:
                raise outside_support(x)
        shapes = [x / h for x in xs]
        log_h = math.log(h)
        # computed before ``dens`` and kept to the end of the call: as a
        # temporary freed right after ``dens`` is allocated, it made block
        # CV's fork workers refault heap pages in every batch (about five
        # times the minor faults per op)
        u_over_h = self._u / h
        with np.errstate(invalid="ignore", under="ignore"):
            dens = np.multiply.outer(shapes, self._log_u)
            for row, shape in zip(dens, shapes):
                if shape == 0.0:
                    row[:] = 0.0
            dens -= u_over_h
            dens -= np.array([(s + 1.0) * log_h for s in shapes])[:, None]
            dens -= np.array([math.lgamma(s + 1.0) for s in shapes])[:, None]
            np.exp(dens, out=dens)
        if self._support is None:
            return dens
        out = np.zeros((len(shapes), self.size))
        out[:, self._support] = dens
        return out


def gamma_kernel(u, x: float, h: float):
    """Evaluate the Gamma kernel for design point x at data points u.

    u may be a scalar or an array; all entries must be finite and
    nonnegative, and so must x.  Values whose log-density falls below the
    double precision floor come back as exactly 0.0.
    """
    uu = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(uu)) or np.any(uu < 0):
        raise ValueError("data points u must be finite and nonnegative")
    out = KernelPlan(KernelFamily.GAMMA, uu).weights(h, x)[0]
    if uu.ndim == 0:
        return float(out[0])
    return out.reshape(uu.shape)


def gaussian_kernel(u, x: float, h: float):
    """Evaluate the Gaussian kernel (1/h) phi((x - u)/h) at data points u;
    x must be finite."""
    uu = np.asarray(u, dtype=float)
    out = KernelPlan(KernelFamily.GAUSSIAN, uu).weights(h, x)[0]
    if uu.ndim == 0:
        return float(out[0])
    return out.reshape(uu.shape)


def gamma_kernel_moments(x: float, h: float) -> tuple[float, float]:
    """Mean and variance of the Gamma(x/h + 1, h) kernel: (x + h, x h + h^2)."""
    h = checked("bandwidth h", h, POSITIVE)
    x = checked("design point x", x, NONNEGATIVE)
    return x + h, x * h + h * h


def boundary_variance_constant(kappa: float) -> float:
    """Gamma(2 kappa + 1) / (2^(2 kappa + 1) Gamma(kappa + 1)^2).

    Scales the asymptotic variance of Gamma-kernel estimators at boundary
    points x = kappa h.  Strictly decreasing in kappa and asymptotically
    1 / (2 sqrt(pi kappa)), which matches the interior variance formula.
    """
    kappa = checked("kappa", kappa, NONNEGATIVE)
    log_c = (
        math.lgamma(2.0 * kappa + 1.0)
        - (2.0 * kappa + 1.0) * math.log(2.0)
        - 2.0 * math.lgamma(kappa + 1.0)
    )
    return math.exp(log_c)


def classify_point(
    x: float, h: float, tau: float = DEFAULT_REGIME_THRESHOLD
) -> PointRegime:
    """Classify x as interior (x/h >= tau) or boundary (kappa = x/h)."""
    h = checked("bandwidth h", h, POSITIVE)
    tau = checked("tau", tau, POSITIVE)
    x = checked("evaluation point x", x, NONNEGATIVE)
    ratio = x / h
    if ratio >= tau:
        return PointRegime(RegimeKind.INTERIOR)
    return PointRegime(RegimeKind.BOUNDARY, kappa=ratio)
