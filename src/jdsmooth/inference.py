"""Asymptotic inference: moments, confidence bands, jump separation, jump test.

For the Gamma-kernel estimators the limit theory splits by regime.  At an
interior point (x/h large) the drift estimator satisfies

    sqrt(n delta h^(1/2)) (mu_hat - mu - h (x/2) f'') -> N(0, M / (2 sqrt(pi x) p)),

while at a boundary point x = kappa h the rate is sqrt(n delta h), the
bias is h^2 (2 + kappa)/2 f'', and the variance carries the boundary
constant Gamma(2 kappa + 1) / (2^(2 kappa + 1) Gamma(kappa + 1)^2).  The
conditional-variance estimator follows the same geometry with the fourth
jump moment in the numerator.  Symmetric Gaussian kernels obey the
classical single-regime forms (rate sqrt(n delta h), bias h^2 f''/2,
constant 1/(2 sqrt(pi))).

The conditional moment identities

    M = sigma^2 + lambda sigma_z^2,
    m4 = 3 lambda sigma_z^4,
    m6 = 15 lambda sigma_z^6,

invert to sigma_z^2 = m6 / (5 m4), lambda = m4 / (3 sigma_z^4), and
sigma^2 = M - lambda sigma_z^2, which separates the jump component from
the diffusion.  The jump test is the bipower-ratio statistic

    (BV/RV - 1) / sqrt(theta max(QP/BV^2, 1) / n),

negative under jumps, with theta = pi^2/4 + pi - 5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .errors import (
    NONNEGATIVE,
    OPEN_UNIT,
    POSITIVE,
    DataError,
    NotIdentifiableError,
    at_least,
    checked,
)
from .kernels import (
    DEFAULT_REGIME_THRESHOLD,
    KernelFamily,
    KernelSpec,
    PointRegime,
    RegimeKind,
    boundary_variance_constant,
    classify_point,
)
from .locallinear import CurveEstimate, LinearFitter, densities
from .proxy import ProxySeries, Target, build_regression_triples
from .summation import exact_sum

_SQRT_PI2 = 2.0 * math.sqrt(math.pi)
_BS_THETA = math.pi**2 / 4.0 + math.pi - 5.0
BS_CRITICAL = 1.96


# target of a band -> target whose local linear estimate is the band's
# variance numerator; the keys are the targets with band limit theory
NUMERATOR_TARGET = {
    Target.DRIFT: Target.COND_VARIANCE,
    Target.COND_VARIANCE: Target.FOURTH_MOMENT,
}


def _numerator_target(target: Target) -> Target:
    """The target whose estimate is the band's variance numerator, or the
    ValueError for a target without limit theory."""
    if target not in NUMERATOR_TARGET:
        raise ValueError(f"no limit theory wired for target {target!r}")
    return NUMERATOR_TARGET[target]


@dataclass(frozen=True, slots=True)
class AsymptoticMoments:
    """Bias, limit variance, and convergence rate of one pointwise estimate."""

    bias: float
    variance: float
    rate: float
    regime: PointRegime
    family: KernelFamily


def asymptotic_moments(
    x: float,
    h: float,
    n: int,
    delta: float,
    target: Target,
    curvature: float,
    numerator: float,
    p_hat: float,
    regime: PointRegime,
    family: KernelFamily = KernelFamily.GAMMA,
) -> AsymptoticMoments:
    """Evaluate the limit-theorem bias, variance and rate at one point.

    The variance numerator is M_hat for the drift target and c4_hat for
    the conditional-variance target (see ``band_companions``).  curvature
    is the estimated second derivative of the target function; n may be
    any positive number (an effective sample size).
    """
    x = checked("evaluation point x", x)
    h = checked("bandwidth h", h, POSITIVE)
    n = checked("n", n, POSITIVE)
    delta = checked("delta", delta, POSITIVE)
    p_hat = checked("density estimate", p_hat, POSITIVE)
    curvature = checked("curvature estimate", curvature)
    if _numerator_target(target) is Target.COND_VARIANCE:
        numerator = checked("conditional variance", numerator, POSITIVE)
    else:
        numerator = checked("fourth moment", numerator, NONNEGATIVE)

    nd = n * delta
    if family is KernelFamily.GAUSSIAN:
        bias = h * h / 2.0 * curvature
        variance = numerator / (_SQRT_PI2 * p_hat)
        rate = math.sqrt(nd * h)
    elif regime.kind is RegimeKind.INTERIOR:
        if not (x > 0):
            raise ValueError("interior Gamma asymptotics need x > 0")
        bias = h * (x / 2.0) * curvature
        variance = numerator / (_SQRT_PI2 * math.sqrt(x) * p_hat)
        rate = math.sqrt(nd * math.sqrt(h))
    else:
        bias = h * h * (2.0 + regime.kappa) / 2.0 * curvature
        variance = boundary_variance_constant(regime.kappa) * numerator / p_hat
        rate = math.sqrt(nd * h)
    return AsymptoticMoments(
        bias=float(bias),
        variance=float(variance),
        rate=float(rate),
        regime=regime,
        family=family,
    )


@dataclass(frozen=True)
class BandCompanions:
    """Pointwise companion estimates a band needs alongside the curve.

    variance_numerator holds M_hat values for drift bands and c4_hat
    values for conditional-variance bands.
    """

    variance_numerator: np.ndarray
    density: np.ndarray
    curvature: np.ndarray


def band_companions(
    p: ProxySeries, kernel: KernelSpec, grid, target: Target
) -> tuple[CurveEstimate, BandCompanions]:
    """The target curve of the proxy series p on a grid, as
    ``estimate_curve`` gives it on ``build_regression_triples(p)``, and the
    companion estimates of its band; the triples are built here, so the
    fits and the density describe one sample.

    At each grid point: the local linear estimate of the variance
    numerator (M_hat for drift, the fourth moment for conditional
    variance), fitted with the curve from the same weights by one
    ``LinearFitter.fits`` call; the pilot curvature of the target, by one
    ``curvatures`` call; the kernel density of p, by one ``densities``
    call over the supported points.  A point where one of them cannot be
    estimated (outside the Gamma support, a sparse region, a degenerate
    design) holds NaN there, which ``confidence_band`` turns into a gap.
    """
    companion = _numerator_target(target)
    fitter = LinearFitter(kernel.family, build_regression_triples(p))
    fits = fitter.fits(kernel.bandwidth, grid, [target, companion])
    numerator = np.where(fits.ok, fits.intercept[1], np.nan)
    curvature, _ = fitter.curvatures(kernel.bandwidth, fits.x, target)
    density = np.full(fits.x.size, np.nan)
    density[~fits.outside] = densities(p, kernel, fits.x[~fits.outside])
    curve = CurveEstimate.of(fits, kernel, target)
    return curve, BandCompanions(numerator, density, curvature)


@dataclass(frozen=True)
class ConfidenceBand:
    """Pointwise asymptotic band; gaps mark grid points with no valid band.

    bias, variance and rate hold the asymptotic moments each point's band
    was built from (NaN at gaps).
    """

    grid: np.ndarray
    center: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    bias: np.ndarray
    variance: np.ndarray
    rate: np.ndarray
    alpha: float
    target: Target
    family: KernelFamily
    bandwidth: float
    regimes: list[PointRegime]
    clipped: np.ndarray
    gaps: dict[int, str] = field(default_factory=dict)


def confidence_band(
    curve: CurveEstimate,
    companions: BandCompanions,
    alpha: float,
    n: int,
    delta: float,
    tau: float = DEFAULT_REGIME_THRESHOLD,
    bias_correct: bool = True,
) -> ConfidenceBand:
    """Pointwise (1 - alpha) band around a fitted curve.

    Each point is bias-corrected by the estimated asymptotic bias (unless
    bias_correct=False) and widened by z_{1-alpha/2} sqrt(variance)/rate.
    Conditional-variance bands are intersected with [0, inf) and the
    clipped points flagged.  Points where the curve failed or a companion
    estimate is unusable become gaps, even when every point is one; only
    arguments raise ValueError: alpha outside (0, 1), n below 1, delta not
    positive and finite, a target not in ``NUMERATOR_TARGET``, companion
    arrays that do not match the grid.  Each point's band uses its own
    regime, also at the regime knife-edge x = tau h: the squared
    boundary/interior half-width ratio C(kappa) 2 sqrt(pi kappa) is below
    1 for every kappa in [1e-6, 1e4], so at x = tau h the interior band is
    the wider one and no switch to the boundary band could ever widen it.
    """
    alpha = checked("alpha", alpha, OPEN_UNIT)
    n = checked("n", n, at_least(1), integer=True)
    delta = checked("delta", delta, POSITIVE)
    _numerator_target(curve.target)
    grid = curve.grid
    m = grid.size
    comp_arrays = (
        companions.variance_numerator,
        companions.density,
        companions.curvature,
    )
    if any(np.asarray(a).size != m for a in comp_arrays):
        raise ValueError("companion arrays must match the curve grid")
    z = NormalDist().inv_cdf(1.0 - alpha / 2.0)
    h = curve.kernel.bandwidth
    family = curve.kernel.family

    center = np.full(m, np.nan)
    lower = np.full(m, np.nan)
    upper = np.full(m, np.nan)
    bias = np.full(m, np.nan)
    variance = np.full(m, np.nan)
    rate = np.full(m, np.nan)
    clipped = np.zeros(m, dtype=bool)
    regimes: list[PointRegime] = []
    gaps: dict[int, str] = {}

    for i in range(m):
        x = float(grid[i])
        if family is KernelFamily.GAMMA and x >= 0:
            regime = classify_point(x, h, tau)
        else:
            regime = PointRegime(RegimeKind.INTERIOR)
        regimes.append(regime)

        if i in curve.failures:
            gaps[i] = f"estimate failed: {curve.failures[i]}"
            continue
        numer = float(companions.variance_numerator[i])
        dens = float(companions.density[i])
        curv = float(companions.curvature[i])
        if not math.isfinite(numer) or (
            numer <= 0 if curve.target is Target.DRIFT else numer < 0
        ):
            gaps[i] = f"unusable variance numerator {numer!r}"
            continue
        if not (math.isfinite(dens) and dens > 0):
            gaps[i] = f"unusable density estimate {dens!r}"
            continue
        if bias_correct and not math.isfinite(curv):
            gaps[i] = f"unusable curvature estimate {curv!r}"
            continue
        if not bias_correct:
            curv = 0.0

        # nothing left for asymptotic_moments to reject: a Gamma point is
        # interior only at x / h >= tau > 0, and below 0 its curve failed
        mom = asymptotic_moments(
            x, h, n, delta, curve.target, curv, numer, dens, regime, family
        )

        # without bias correction curv is 0, so mom.bias is 0
        c = float(curve.values[i]) - mom.bias
        half = z * math.sqrt(mom.variance) / mom.rate
        lo, hi = c - half, c + half
        if curve.target is Target.COND_VARIANCE:
            if lo < 0.0 or hi < 0.0:
                clipped[i] = True
            lo, hi = max(lo, 0.0), max(hi, 0.0)
        center[i], lower[i], upper[i] = c, lo, hi
        bias[i], variance[i], rate[i] = mom.bias, mom.variance, mom.rate

    return ConfidenceBand(
        grid=grid,
        center=center,
        lower=lower,
        upper=upper,
        bias=bias,
        variance=variance,
        rate=rate,
        alpha=alpha,
        target=curve.target,
        family=family,
        bandwidth=h,
        regimes=regimes,
        clipped=clipped,
        gaps=gaps,
    )


@dataclass(frozen=True, slots=True)
class JumpComponents:
    """Diffusion variance, jump intensity, and jump size variance."""

    sigma2: float
    lam: float
    sigma_z2: float
    flags: tuple[str, ...] = ()


def identify_jump_components(m2: float, m4: float, m6: float) -> JumpComponents:
    """Invert the conditional moment identities at one point.

    Negative inputs that still admit the algebra are carried through and
    flagged instead of clipped; combinations that break it (no fourth
    moment mass, zero sixth moment) are not identifiable.
    """
    m2, m4, m6 = checked("m2", m2), checked("m4", m4), checked("m6", m6)
    if m4 <= 0:
        raise NotIdentifiableError(
            f"fourth moment must be positive to identify jumps, got {m4!r}"
        )
    sigma_z2 = m6 / (5.0 * m4)
    if sigma_z2 == 0.0:
        raise NotIdentifiableError(
            "sixth moment is zero: jump size variance is not identifiable"
        )
    lam = m4 / (3.0 * sigma_z2 * sigma_z2)
    sigma2 = m2 - lam * sigma_z2
    flags = []
    if sigma_z2 < 0:
        flags.append("size_var_negative")
    if sigma2 < 0:
        flags.append("sigma2_negative")
    return JumpComponents(
        sigma2=float(sigma2),
        lam=float(lam),
        sigma_z2=float(sigma_z2),
        flags=tuple(flags),
    )


@dataclass(frozen=True, slots=True)
class JumpTestResult:
    """Bipower-ratio jump test outcome at the 5 percent level."""

    statistic: float
    realized_variance: float
    bipower_variation: float
    quadpower: float
    n: int

    @property
    def reject(self) -> bool:
        return abs(self.statistic) > BS_CRITICAL


def bs_jump_test(data) -> JumpTestResult:
    """Bipower-ratio test for jumps in a return series.

    ``data`` is either a return array used as-is, or a ProxySeries whose
    returns are reconstructed as value * delta (undoing the difference
    quotient, which recovers log-price increments for price data).  The
    statistic is scale invariant and diverges to minus infinity under
    jumps; |statistic| > BS_CRITICAL = 1.96 rejects at the 5 percent level.
    """
    if isinstance(data, ProxySeries):
        r = data.values * data.delta
    else:
        r = np.asarray(data, dtype=float)
    if r.ndim != 1:
        raise ValueError("returns must be one-dimensional")
    n = int(r.size)
    if n < 10:
        raise DataError(f"need at least 10 returns, got {n}")
    if not np.all(np.isfinite(r)):
        raise DataError("returns contain non-finite values")

    a = np.abs(r)
    rv = exact_sum(r * r)
    bv = (math.pi / 2.0) * (n / (n - 1.0)) * exact_sum(a[1:] * a[:-1])
    qp = (
        n
        * (math.pi**2 / 4.0)
        * (n / (n - 3.0))
        * exact_sum(a[3:] * a[2:-1] * a[1:-2] * a[:-3])
    )
    if rv <= 0:
        raise DataError("realized variance is zero; returns are degenerate")
    if bv <= 0:
        raise DataError("bipower variation is zero; returns are degenerate")
    stat = (bv / rv - 1.0) / math.sqrt(_BS_THETA * max(qp / (bv * bv), 1.0) / n)
    return JumpTestResult(
        statistic=float(stat),
        realized_variance=float(rv),
        bipower_variation=float(bv),
        quadpower=float(qp),
        n=n,
    )
