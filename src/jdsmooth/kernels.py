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
        b = self.bandwidth
        if not (isinstance(b, (int, float)) and math.isfinite(b) and b > 0):
            raise ValueError(f"bandwidth must be a positive finite number, got {b!r}")


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
            if self.kappa is None or self.kappa < 0:
                raise ValueError("boundary regime requires kappa >= 0")


def _check_positive(name: str, value: float) -> float:
    value = float(value)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return value


def gamma_kernel(u, x: float, h: float):
    """Evaluate the Gamma kernel for design point x at data points u.

    u may be a scalar or an array; all entries must be finite and
    nonnegative.  Values whose log-density falls below the double
    precision floor come back as exactly 0.0.
    """
    h = _check_positive("bandwidth h", h)
    x = float(x)
    if not (math.isfinite(x) and x >= 0):
        raise ValueError(f"design point x must be nonnegative, got {x!r}")
    uu = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(uu)) or np.any(uu < 0):
        raise ValueError("data points u must be finite and nonnegative")

    shape = x / h
    if shape == 0.0:
        # Exponential(h) density; u^0 contributes nothing even at u = 0
        power = np.zeros_like(uu)
    else:
        with np.errstate(divide="ignore"):
            power = shape * np.log(uu)
    log_dens = power - uu / h - (shape + 1.0) * math.log(h) - math.lgamma(shape + 1.0)
    with np.errstate(under="ignore"):
        out = np.exp(log_dens)
    if uu.ndim == 0:
        return float(out)
    return out


def gaussian_kernel(u, x: float, h: float):
    """Evaluate the Gaussian kernel (1/h) phi((x - u)/h) at data points u."""
    h = _check_positive("bandwidth h", h)
    uu = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(uu)):
        raise ValueError("data points u must be finite")
    z = (float(x) - uu) / h
    with np.errstate(under="ignore"):
        out = np.exp(-0.5 * z * z) / (h * math.sqrt(2.0 * math.pi))
    if uu.ndim == 0:
        return float(out)
    return out


def weight_values(spec: KernelSpec, u, x: float) -> np.ndarray:
    """Kernel weights for data u at evaluation point x.

    The Gamma family has support [0, inf): data below zero receive zero
    weight, while x itself must be nonnegative.  The Gaussian family has
    no such restriction.
    """
    uu = np.atleast_1d(np.asarray(u, dtype=float))
    if not np.all(np.isfinite(uu)):
        raise ValueError("data points u must be finite")
    if spec.family is KernelFamily.GAMMA:
        if not (math.isfinite(x) and x >= 0):
            raise ValueError(
                f"Gamma kernel evaluation point must be nonnegative, got {x!r}"
            )
        out = np.zeros_like(uu)
        mask = uu >= 0
        if np.any(mask):
            out[mask] = gamma_kernel(uu[mask], x, spec.bandwidth)
        return out
    return np.asarray(gaussian_kernel(uu, x, spec.bandwidth))


def gamma_kernel_moments(x: float, h: float) -> tuple[float, float]:
    """Mean and variance of the Gamma(x/h + 1, h) kernel: (x + h, x h + h^2)."""
    h = _check_positive("bandwidth h", h)
    x = float(x)
    if not (math.isfinite(x) and x >= 0):
        raise ValueError(f"design point x must be nonnegative, got {x!r}")
    return x + h, x * h + h * h


def boundary_variance_constant(kappa: float) -> float:
    """Gamma(2 kappa + 1) / (2^(2 kappa + 1) Gamma(kappa + 1)^2).

    Scales the asymptotic variance of Gamma-kernel estimators at boundary
    points x = kappa h.  Strictly decreasing in kappa and asymptotically
    1 / (2 sqrt(pi kappa)), which matches the interior variance formula.
    """
    kappa = float(kappa)
    if not (math.isfinite(kappa) and kappa >= 0):
        raise ValueError(f"kappa must be nonnegative, got {kappa!r}")
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
    h = _check_positive("bandwidth h", h)
    tau = _check_positive("tau", tau)
    x = float(x)
    if not (math.isfinite(x) and x >= 0):
        raise ValueError(f"evaluation point x must be nonnegative, got {x!r}")
    ratio = x / h
    if ratio >= tau:
        return PointRegime(RegimeKind.INTERIOR)
    return PointRegime(RegimeKind.BOUNDARY, kappa=ratio)
