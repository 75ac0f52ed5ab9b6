"""Kernel evaluation tests.

The reference implementation used as an oracle here is the textbook Gamma
density ``stats.gamma.pdf(u, x / h + 1, scale=h)`` together with adaptive
quadrature for mass and moments.  Frozen spot values below were computed
from that oracle, independently of the package code.
"""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate, stats

from jdsmooth.kernels import (
    _LGAMMA_OVERFLOW,
    KernelFamily,
    KernelPlan,
    KernelSpec,
    PointRegime,
    RegimeKind,
    boundary_variance_constant,
    classify_point,
    gamma_kernel,
    gamma_kernel_moments,
    gaussian_kernel,
)
from jdsmooth.locallinear import LinearFitter, estimate_density
from jdsmooth.proxy import ProxySeries, Target

# spot values from stats.gamma.pdf(u, x/h + 1, scale=h)
FROZEN_GAMMA = [
    (1.0, 0.1, 1.0, 1.251100357211337),
    (1.0, 0.1, 0.85, 1.1038832107349252),
    (0.15, 0.02, 0.11, 5.198480856452173),
    (0.0, 0.5, 0.3, 1.0976232721880528),
    (2.0, 0.25, 2.5, 0.45039612859608036),
]


@pytest.mark.parametrize("x, h, u, expected", FROZEN_GAMMA)
def test_gamma_kernel_frozen_values(x, h, u, expected):
    assert gamma_kernel(u, x, h) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("x, h", [(0.15, 0.02), (1.0, 0.3), (0.0, 0.5), (3.7, 0.11)])
def test_gamma_kernel_matches_gamma_density(x, h):
    u = np.linspace(0.0, x + 10 * h, 40)
    oracle = stats.gamma.pdf(u, x / h + 1.0, scale=h)
    np.testing.assert_allclose(gamma_kernel(u, x, h), oracle, rtol=1e-10)


@pytest.mark.parametrize("x, h", [(0.15, 0.02), (1.0, 0.3), (0.0, 0.5), (3.7, 0.11)])
def test_gamma_kernel_normalizes_and_moments(x, h):
    mass, _ = integrate.quad(lambda u: gamma_kernel(u, x, h), 0, np.inf, limit=200)
    assert mass == pytest.approx(1.0, abs=1e-9)
    mean, var = gamma_kernel_moments(x, h)
    m1, _ = integrate.quad(lambda u: u * gamma_kernel(u, x, h), 0, np.inf, limit=200)
    m2, _ = integrate.quad(
        lambda u: (u - m1) ** 2 * gamma_kernel(u, x, h), 0, np.inf, limit=200
    )
    assert m1 == pytest.approx(mean, rel=1e-9)
    assert m2 == pytest.approx(var, rel=1e-8)


def test_gamma_kernel_moments_closed_form():
    mean, var = gamma_kernel_moments(1.0, 0.1)
    assert mean == pytest.approx(1.1)
    assert var == pytest.approx(0.11)


def test_gamma_kernel_extreme_shape_is_finite():
    # shape x/h near 1e6: direct gamma-function evaluation overflows, the
    # log-space path must survive and approach the normal approximation
    x, h = 1.0, 1e-6
    v = gamma_kernel(x, x, h)
    assert math.isfinite(v) and v > 0
    assert v == pytest.approx(1.0 / math.sqrt(2 * math.pi * x * h), rel=1e-6)


def test_gamma_kernel_far_tail_underflows_to_zero():
    v = gamma_kernel(50.0, 1.0, 1e-4)
    assert v == 0.0
    arr = gamma_kernel(np.array([40.0, 1.0, 60.0]), 1.0, 1e-4)
    assert np.all(np.isfinite(arr))
    assert arr[0] == 0.0 and arr[2] == 0.0 and arr[1] > 0.0


def test_gamma_kernel_at_origin():
    # shape parameter x/h + 1 > 1 puts zero density at u = 0; with x = 0 the
    # kernel is the Exponential(h) density whose value at 0 is 1/h
    assert gamma_kernel(0.0, 1.0, 0.1) == 0.0
    assert gamma_kernel(0.0, 0.0, 0.5) == pytest.approx(2.0)


def test_lgamma_guard_sits_at_the_overflow():
    """Below the guard every shape keeps math.lgamma's own value; at it,
    math.lgamma raises."""
    assert math.isfinite(math.lgamma(math.nextafter(_LGAMMA_OVERFLOW, 0.0)))
    with pytest.raises(OverflowError):
        math.lgamma(_LGAMMA_OVERFLOW)


@pytest.mark.parametrize("x, h", [
    (_LGAMMA_OVERFLOW, 1.0),
    (1e306, 0.05),
    (1.0, 1e-306),
    (0.1, 1e-310),  # x/h overflows to inf
])
def test_gamma_shape_beyond_the_lgamma_range_has_no_weight(x, h):
    u = np.array([0.0, 0.05, 0.5, 1.0, 1e306, 1.5e308])
    plan = KernelPlan(KernelFamily.GAMMA, u)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = plan.weights(h, [x, 0.5])
    assert np.all(rows[0] == 0.0)
    # the point beside it is evaluated as if alone
    assert np.array_equal(rows[1], plan.weights(h, [0.5])[0], equal_nan=True)


def test_gaussian_weights_far_from_the_data_are_zero_without_warning():
    u = np.array([-1.0, 0.0, 0.3, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = KernelPlan(KernelFamily.GAUSSIAN, u).weights(0.05, [1e300, -1e300])
    assert np.all(rows == 0.0)


def test_gamma_kernel_rejects_bad_arguments():
    with pytest.raises(ValueError):
        gamma_kernel(-0.1, 1.0, 0.1)
    with pytest.raises(ValueError):
        gamma_kernel(1.0, -1.0, 0.1)
    with pytest.raises(ValueError):
        gamma_kernel(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        gamma_kernel(np.array([0.5, np.nan]), 1.0, 0.1)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "family, kernel",
    [(KernelFamily.GAMMA, gamma_kernel), (KernelFamily.GAUSSIAN, gaussian_kernel)],
    ids=["gamma", "gaussian"],
)
def test_non_finite_evaluation_point_is_an_argument_error(family, kernel, x):
    """Every entry point to the weights rejects x = NaN or +-inf in both
    families, naming the value, instead of returning NaN or 0.0 weights."""
    u = np.array([0.1, 0.4, 0.9])
    spec = KernelSpec(family, 0.2)
    p = ProxySeries(delta=0.1, values=u)
    for call in (
        lambda: kernel(u, x, 0.2),
        lambda: LinearFitter.of_series(family, p).fits(0.2, [0.5, x], [Target.DRIFT]),
        lambda: estimate_density(p, spec, x),
    ):
        with pytest.raises(ValueError, match=f"must be finite, got {x!r}"):
            call()


def test_gaussian_kernel_matches_normal_density():
    u = np.linspace(-3, 3, 25)
    oracle = stats.norm.pdf(u, loc=0.4, scale=0.25)
    np.testing.assert_allclose(gaussian_kernel(u, 0.4, 0.25), oracle, rtol=1e-12)
    # symmetric in (x - u)
    assert gaussian_kernel(0.1, 0.5, 0.2) == pytest.approx(
        gaussian_kernel(0.9, 0.5, 0.2)
    )


def test_gaussian_kernel_rejects_bad_bandwidth():
    with pytest.raises(ValueError):
        gaussian_kernel(0.0, 0.0, -1.0)


def test_boundary_variance_constant_known_points():
    # Gamma(2kappa+1) / (2^(2kappa+1) Gamma(kappa+1)^2) has simple closed
    # forms at kappa = 0.5 and kappa = 1
    assert boundary_variance_constant(0.5) == pytest.approx(1.0 / math.pi, rel=1e-12)
    assert boundary_variance_constant(1.0) == pytest.approx(0.25, rel=1e-12)
    assert boundary_variance_constant(0.0) == pytest.approx(0.5, rel=1e-12)


def test_boundary_variance_constant_decreasing():
    kappas = np.linspace(0.25, 5.0, 96)
    vals = np.array([boundary_variance_constant(k) for k in kappas])
    assert np.all(np.diff(vals) < 0)


def test_boundary_variance_constant_interior_limit():
    # for large kappa the constant behaves like 1 / (2 sqrt(pi kappa)),
    # which is how the boundary and interior variance formulas reconcile
    k = 400.0
    assert boundary_variance_constant(k) == pytest.approx(
        1.0 / (2.0 * math.sqrt(math.pi * k)), rel=1e-3
    )


def test_classify_point_threshold():
    assert classify_point(0.5, 0.01) == PointRegime(RegimeKind.INTERIOR)
    reg = classify_point(0.05, 0.01)
    assert reg.kind is RegimeKind.BOUNDARY
    assert reg.kappa == pytest.approx(5.0)
    assert classify_point(0.0, 0.02).kappa == 0.0
    # ratio exactly at the threshold counts as interior
    assert classify_point(0.2, 0.01, tau=20.0).kind is RegimeKind.INTERIOR
    assert classify_point(0.19, 0.01, tau=20.0).kind is RegimeKind.BOUNDARY
    with pytest.raises(ValueError):
        classify_point(-0.1, 0.01)


def test_kernel_spec_validation():
    spec = KernelSpec(KernelFamily.GAMMA, 0.05)
    assert spec.bandwidth == 0.05
    with pytest.raises(ValueError):
        KernelSpec(KernelFamily.GAMMA, 0.0)
    with pytest.raises(ValueError):
        KernelSpec(KernelFamily.GAUSSIAN, math.nan)


def test_kernel_spec_rejects_a_bool_bandwidth():
    # True is an int to isinstance and would pass as h = 1
    with pytest.raises(ValueError, match="bandwidth"):
        KernelSpec(KernelFamily.GAMMA, True)


def scalar_gamma(u, x, h):
    """The Gamma kernel at one point x, in the scalar formula's operation order."""
    shape = x / h
    with np.errstate(divide="ignore", under="ignore"):
        power = np.zeros_like(u) if shape == 0.0 else shape * np.log(u)
        return np.exp(
            power - u / h - (shape + 1.0) * math.log(h) - math.lgamma(shape + 1.0)
        )


def scalar_gaussian(u, x, h):
    z = (x - u) / h
    with np.errstate(under="ignore"):
        return np.exp(-0.5 * z * z) / (h * math.sqrt(2.0 * math.pi))


@pytest.mark.parametrize("h", [5e-4, 0.02, 0.7])
def test_kernel_plan_rows_equal_the_scalar_kernels(h):
    # u = 0, a subnormal u, points below the Gamma support and far tails;
    # x = 0 (shape 0) and x = 3, whose row underflows to 0 entirely at
    # h = 5e-4
    rng = np.random.default_rng(17)
    u = np.concatenate(
        [[0.0, -0.3, -1e-300, 5e-324], rng.uniform(0.0, 1.5, 200), [50.0, 1e3]]
    )
    xs = np.array([0.0, h, 0.05, 0.4, 1.2, 3.0])
    support = u >= 0
    plan = KernelPlan(KernelFamily.GAMMA, u)
    rows = plan.weights(h, xs)
    assert rows.shape == (xs.size, u.size)
    for row, x in zip(rows, xs):
        assert np.all(row[~support] == 0.0)
        assert np.array_equal(row[support], scalar_gamma(u[support], x, h))
        assert np.array_equal(row[support], gamma_kernel(u[support], x, h))
    assert rows[0, 0] == pytest.approx(1.0 / h, rel=1e-14)
    underflowed = (rows[:, support] == 0.0) & (u[support] > 0.0)
    assert np.any(underflowed)
    if h == 5e-4:
        assert np.all(rows[-1] == 0.0)
    # one plan serves every bandwidth and keeps nothing from a call
    state = dict(vars(plan))
    wider = plan.weights(2.0 * h, xs)
    assert np.array_equal(wider, KernelPlan(KernelFamily.GAMMA, u).weights(2.0 * h, xs))
    assert np.array_equal(plan.weights(h, xs), rows)
    assert vars(plan).keys() == state.keys()
    assert all(vars(plan)[name] is value for name, value in state.items())

    gplan = KernelPlan(KernelFamily.GAUSSIAN, u)
    grows = gplan.weights(h, xs)
    for row, x in zip(grows, xs):
        assert np.array_equal(row, scalar_gaussian(u, x, h))
        assert np.array_equal(row, gaussian_kernel(u, x, h))


def test_kernel_plan_rejects_bad_arguments():
    with pytest.raises(ValueError):
        KernelPlan(KernelFamily.GAMMA, np.array([0.5, np.inf]))
    plan = KernelPlan(KernelFamily.GAMMA, np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        plan.weights(0.1, [0.2, -0.1])
    with pytest.raises(ValueError):
        plan.weights(0.0, [0.2])
