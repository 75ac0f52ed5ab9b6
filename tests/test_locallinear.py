"""Local linear fit tests against a brute-force weighted least squares oracle.

The oracle builds the design matrix [1, (d_j - x)] explicitly, applies the
kernel weights through numpy.linalg.lstsq, and never shares code with the
implementation under test.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jdsmooth.errors import (
    DegenerateDesignError,
    EstimationError,
    SparseRegionError,
)
from jdsmooth.kernels import KernelFamily, KernelSpec, gamma_kernel, weight_values
from jdsmooth.locallinear import (
    Target,
    estimate_density,
    estimate_drift_curve,
    estimate_m_curve,
    estimate_moment_curve,
    estimate_second_derivative,
    local_linear_fit,
)
from jdsmooth.proxy import ProxySeries, RegressionTriples, build_direct_triples


def wls_oracle(w_points, d_points, resp, spec, x):
    """Reference fit: explicit weighted design matrix, lstsq solve."""
    k = weight_values(spec, w_points, x)
    a_mat = np.column_stack([np.ones_like(d_points), d_points - x])
    sw = np.sqrt(k)
    beta, *_ = np.linalg.lstsq(a_mat * sw[:, None], resp * sw, rcond=None)
    return beta[0], beta[1]


def make_triples(rng, n=60, spread=1.0, center=0.5):
    w = center + spread * rng.standard_normal(n)
    d = w + 0.05 * rng.standard_normal(n)
    resp = rng.standard_normal(n)
    return RegressionTriples(
        delta=0.1,
        weight_points=w,
        design_points=d,
        drift=resp,
        cond_var=np.abs(resp),
        moment4=resp**2,
        moment6=resp**4,
    )


@pytest.mark.parametrize("family", [KernelFamily.GAMMA, KernelFamily.GAUSSIAN])
def test_fit_matches_wls_oracle(family):
    rng = np.random.default_rng(5)
    for trial in range(200):
        t = make_triples(rng)
        h = float(rng.uniform(0.05, 0.6))
        x = float(rng.uniform(0.0, 1.2))
        spec = KernelSpec(family, h)
        fit = local_linear_fit(t, Target.DRIFT, spec, x)
        a, b = wls_oracle(t.weight_points, t.design_points, t.drift, spec, x)
        assert fit.intercept == pytest.approx(a, rel=1e-9, abs=1e-12)
        assert fit.slope == pytest.approx(b, rel=1e-9, abs=1e-12)


def test_weight_orthogonality():
    # the effective weights satisfy sum(omega * (d - x)) = 0 identically
    rng = np.random.default_rng(17)
    for family in KernelFamily:
        t = make_triples(rng, n=120)
        spec = KernelSpec(family, 0.2)
        x = 0.4
        k = weight_values(spec, t.weight_points, x)
        dx = t.design_points - x
        s1 = math.fsum((k * dx).tolist())
        s2 = math.fsum((k * dx * dx).tolist())
        omega = k * (s2 - dx * s1)
        lhs = abs(math.fsum((omega * dx).tolist()))
        scale = math.fsum(np.abs(omega * dx).tolist())
        assert lhs <= 1e-8 * max(scale, 1e-300)


@given(
    alpha=st.floats(-5, 5),
    beta=st.floats(-5, 5),
    x=st.floats(0.05, 1.0),
    h=st.floats(0.05, 0.5),
)
@settings(max_examples=60, deadline=None)
def test_affine_reproduction(alpha, beta, x, h):
    # responses exactly affine in (d - x) are reproduced coefficient-for-
    # coefficient regardless of the kernel weighting
    rng = np.random.default_rng(23)
    w = np.abs(rng.standard_normal(50)) + 0.01
    d = w + 0.02 * rng.standard_normal(50)
    resp = alpha + beta * (d - x)
    t = RegressionTriples(
        delta=0.1,
        weight_points=w,
        design_points=d,
        drift=resp,
        cond_var=resp,
        moment4=resp,
        moment6=resp,
    )
    fit = local_linear_fit(t, Target.DRIFT, KernelSpec(KernelFamily.GAMMA, h), x)
    assert fit.intercept == pytest.approx(alpha, rel=1e-10, abs=1e-10)
    assert fit.slope == pytest.approx(beta, rel=1e-10, abs=1e-10)


def test_scale_equivariance_power_of_two_exact():
    rng = np.random.default_rng(3)
    t = make_triples(rng)
    spec = KernelSpec(KernelFamily.GAMMA, 0.3)
    base = local_linear_fit(t, Target.DRIFT, spec, 0.5)
    scaled = RegressionTriples(
        delta=t.delta,
        weight_points=t.weight_points,
        design_points=t.design_points,
        drift=4.0 * t.drift,
        cond_var=t.cond_var,
        moment4=t.moment4,
        moment6=t.moment6,
    )
    fit = local_linear_fit(scaled, Target.DRIFT, spec, 0.5)
    # scaling by a power of two commutes with every rounding step
    assert fit.intercept == 4.0 * base.intercept
    assert fit.slope == 4.0 * base.slope


def test_scale_equivariance_general():
    rng = np.random.default_rng(4)
    t = make_triples(rng)
    spec = KernelSpec(KernelFamily.GAUSSIAN, 0.25)
    base = local_linear_fit(t, Target.DRIFT, spec, 0.5)
    s = 3.7
    scaled = RegressionTriples(
        delta=t.delta,
        weight_points=t.weight_points,
        design_points=t.design_points,
        drift=s * t.drift,
        cond_var=t.cond_var,
        moment4=t.moment4,
        moment6=t.moment6,
    )
    fit = local_linear_fit(scaled, Target.DRIFT, spec, 0.5)
    assert fit.intercept == pytest.approx(s * base.intercept, rel=1e-12)
    assert fit.slope == pytest.approx(s * base.slope, rel=1e-12)


def test_negative_weight_points_ignored_by_gamma():
    rng = np.random.default_rng(9)
    t = make_triples(rng, n=80, center=0.6, spread=0.2)
    spec = KernelSpec(KernelFamily.GAMMA, 0.2)
    base = local_linear_fit(t, Target.DRIFT, spec, 0.5)
    # splice in points sitting below the support with wild responses
    w = np.concatenate([t.weight_points, [-0.5, -1.0]])
    d = np.concatenate([t.design_points, [0.5, 0.6]])
    resp = np.concatenate([t.drift, [1e6, -1e6]])
    t2 = RegressionTriples(
        delta=t.delta,
        weight_points=w,
        design_points=d,
        drift=resp,
        cond_var=np.ones_like(resp),
        moment4=np.ones_like(resp),
        moment6=np.ones_like(resp),
    )
    fit = local_linear_fit(t2, Target.DRIFT, spec, 0.5)
    assert fit.intercept == pytest.approx(base.intercept, rel=1e-12)
    assert fit.slope == pytest.approx(base.slope, rel=1e-12)


def test_sparse_region_raises():
    t = RegressionTriples(
        delta=0.1,
        weight_points=np.array([100.0, 101.0, 102.0]),
        design_points=np.array([100.0, 101.0, 102.0]),
        drift=np.array([1.0, 2.0, 3.0]),
        cond_var=np.ones(3),
        moment4=np.ones(3),
        moment6=np.ones(3),
    )
    with pytest.raises(SparseRegionError):
        local_linear_fit(t, Target.DRIFT, KernelSpec(KernelFamily.GAMMA, 1e-4), 0.1)


def test_degenerate_design_raises():
    t = RegressionTriples(
        delta=0.1,
        weight_points=np.full(5, 0.5),
        design_points=np.full(5, 0.5),
        drift=np.arange(5.0),
        cond_var=np.ones(5),
        moment4=np.ones(5),
        moment6=np.ones(5),
    )
    with pytest.raises(DegenerateDesignError):
        local_linear_fit(t, Target.DRIFT, KernelSpec(KernelFamily.GAUSSIAN, 0.3), 0.5)


def test_direct_triples_share_properties():
    rng = np.random.default_rng(31)
    x_path = np.abs(np.cumsum(rng.standard_normal(200)) * 0.05) + 0.05
    t = build_direct_triples(x_path, 0.01)
    spec = KernelSpec(KernelFamily.GAMMA, 0.2)
    fit = local_linear_fit(t, Target.DRIFT, spec, 0.5)
    a, b = wls_oracle(t.weight_points, t.design_points, t.drift, spec, 0.5)
    assert fit.intercept == pytest.approx(a, rel=1e-9)
    assert fit.slope == pytest.approx(b, rel=1e-9)


def test_density_single_observation():
    p = ProxySeries(delta=1.0, values=np.array([0.7]))
    spec = KernelSpec(KernelFamily.GAMMA, 1.0)
    assert estimate_density(p, spec, 0.7) == pytest.approx(
        gamma_kernel(0.7, 0.7, 1.0)
    )


def test_density_exponential_sample():
    rng = np.random.default_rng(12)
    sample = rng.exponential(1.0, 5000)
    p = ProxySeries(delta=1.0, values=sample)
    spec = KernelSpec(KernelFamily.GAMMA, 0.05)
    assert estimate_density(p, spec, 1.0) == pytest.approx(math.exp(-1), abs=0.1)
    gspec = KernelSpec(KernelFamily.GAUSSIAN, 0.05)
    assert estimate_density(p, gspec, 1.0) == pytest.approx(math.exp(-1), abs=0.1)


def test_second_derivative_recovers_cubic():
    rng = np.random.default_rng(21)
    w = np.abs(rng.standard_normal(400)) + 0.02
    d = w + 0.01 * rng.standard_normal(400)
    x = 0.6
    c = [0.4, -1.2, 2.5, 0.7]
    resp = c[0] + c[1] * (d - x) + c[2] * (d - x) ** 2 + c[3] * (d - x) ** 3
    t = RegressionTriples(
        delta=0.1,
        weight_points=w,
        design_points=d,
        drift=resp,
        cond_var=resp,
        moment4=resp,
        moment6=resp,
    )
    for family in KernelFamily:
        got = estimate_second_derivative(
            t, Target.DRIFT, KernelSpec(family, 0.15), x
        )
        assert got == pytest.approx(2.0 * c[2], rel=1e-6)


def test_second_derivative_degenerate():
    t = RegressionTriples(
        delta=0.1,
        weight_points=np.full(6, 0.5),
        design_points=np.full(6, 0.5),
        drift=np.arange(6.0),
        cond_var=np.ones(6),
        moment4=np.ones(6),
        moment6=np.ones(6),
    )
    with pytest.raises(DegenerateDesignError):
        estimate_second_derivative(
            t, Target.DRIFT, KernelSpec(KernelFamily.GAUSSIAN, 0.3), 0.5
        )


def test_curve_records_failures_per_point():
    rng = np.random.default_rng(8)
    t = make_triples(rng, n=100, center=0.5, spread=0.1)
    spec = KernelSpec(KernelFamily.GAMMA, 0.05)
    grid = np.array([-0.2, 0.5, 50.0])
    curve = estimate_drift_curve(t, spec, grid)
    assert len(curve.values) == len(grid)
    assert 0 in curve.failures  # below the Gamma support
    assert 2 in curve.failures  # far from any data
    assert np.isnan(curve.values[0]) and np.isnan(curve.values[2])
    assert np.isfinite(curve.values[1])
    assert curve.target is Target.DRIFT

    m_curve = estimate_m_curve(t, spec, np.array([0.5]))
    assert m_curve.target is Target.COND_VARIANCE
    m4_curve = estimate_moment_curve(t, spec, np.array([0.5]), order=4)
    assert m4_curve.target is Target.FOURTH_MOMENT
    with pytest.raises(ValueError):
        estimate_moment_curve(t, spec, np.array([0.5]), order=5)


def test_curve_all_failed_raises():
    rng = np.random.default_rng(8)
    t = make_triples(rng, n=30, center=0.5, spread=0.1)
    spec = KernelSpec(KernelFamily.GAMMA, 0.05)
    with pytest.raises(EstimationError):
        estimate_drift_curve(t, spec, np.array([-1.0, -2.0]))
    # the public estimators raise it, so the package exports it
    import jdsmooth

    assert jdsmooth.EstimationError is EstimationError
