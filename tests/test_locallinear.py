"""Local linear fit tests against a brute-force weighted least squares oracle.

The oracle builds the design matrix [1, (d_j - x)] explicitly, applies the
kernel weights through numpy.linalg.lstsq, and never shares code with the
implementation under test.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jdsmooth import locallinear
from jdsmooth.errors import (
    DegenerateDesignError,
    EstimationError,
    SparseRegionError,
)
from jdsmooth.kernels import KernelFamily, KernelSpec, gamma_kernel, weight_values
from jdsmooth.locallinear import (
    LinearFitter,
    Target,
    _power_sums,
    estimate_curve,
    estimate_density,
    estimate_drift_curve,
    estimate_m_curve,
    estimate_moment_curve,
    estimate_second_derivative,
    local_linear_fit,
)
from jdsmooth.proxy import ProxySeries, RegressionTriples, build_direct_triples
from jdsmooth.summation import CHUNK


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


@pytest.mark.parametrize("family", [KernelFamily.GAMMA, KernelFamily.GAUSSIAN])
def test_weight_mass_is_kernel_mass(family):
    t = make_triples(np.random.default_rng(9))
    spec = KernelSpec(family, 0.3)
    fit = local_linear_fit(t, Target.DRIFT, spec, 0.5)
    assert fit.weight_mass == math.fsum(
        weight_values(spec, t.weight_points, 0.5).tolist()
    )


@pytest.mark.parametrize("family", [KernelFamily.GAMMA, KernelFamily.GAUSSIAN])
def test_fit_does_not_depend_on_the_order_of_the_triples(family):
    t = make_triples(np.random.default_rng(21), n=3 * CHUNK + 5)
    order = np.random.default_rng(22).permutation(len(t.drift))
    shuffled = RegressionTriples(
        delta=t.delta,
        weight_points=t.weight_points[order],
        design_points=t.design_points[order],
        drift=t.drift[order],
        cond_var=t.cond_var[order],
        moment4=t.moment4[order],
        moment6=t.moment6[order],
    )
    spec = KernelSpec(family, 0.05)
    assert local_linear_fit(t, Target.DRIFT, spec, 0.5) == local_linear_fit(
        shuffled, Target.DRIFT, spec, 0.5
    )
    assert estimate_second_derivative(
        t, Target.DRIFT, spec, 0.5
    ) == estimate_second_derivative(shuffled, Target.DRIFT, spec, 0.5)


@pytest.mark.parametrize("degree", [1, 3])
def test_power_sums_memory_does_not_grow_with_n(degree):
    """Peak new allocation of one call stays under one bound set by CHUNK."""
    bound = 10 * (3 * degree + 2) * CHUNK * 8
    for n in (10**5, 10**6):
        rng = np.random.default_rng(n)
        k = np.exp(-rng.uniform(0.0, 700.0, n))
        t = rng.uniform(-1.0, 1.0, n)
        y = rng.standard_normal(n)
        tracemalloc.start()
        try:
            _power_sums(k, t, y, degree)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (n, peak, bound)


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


def batch_test_triples():
    """1,000 triples spread over [0.2, 1] plus a cluster of 10 at one design
    point 3: far from the rest, a small bandwidth sees only the cluster,
    whose design has no spread."""
    rng = np.random.default_rng(41)
    w = np.concatenate([rng.uniform(0.2, 1.0, 990), np.full(10, 3.0)])
    d = np.concatenate([w[:990] + 0.01 * rng.standard_normal(990), np.full(10, 3.0)])
    resp = rng.standard_normal(1000)
    return RegressionTriples(
        delta=0.1, weight_points=w, design_points=d, drift=resp,
        cond_var=resp**2, moment4=resp**4, moment6=np.abs(resp) ** 6,
    )


@pytest.mark.parametrize("target", [Target.DRIFT, Target.COND_VARIANCE])
@pytest.mark.parametrize("family", [KernelFamily.GAMMA, KernelFamily.GAUSSIAN])
def test_curve_batches_match_one_point_fits(family, target):
    # several grid points per batch and several batches; inside them a
    # point below 0, the Gamma shape-0 point x = 0, a point with no kernel
    # mass (x = 100) and one whose design is collinear (the cluster at 3)
    t = batch_test_triples()
    batch = locallinear._BATCH_TERMS // (5 * len(t.drift))
    grid = np.linspace(0.25, 0.95, 26)
    for i, x in [(3, -0.1), (5, 0.0), (11, 100.0), (13, 3.0)]:
        grid = np.insert(grid, i, x)
    assert 1 < batch and 3 * batch < grid.size
    spec = KernelSpec(family, 0.02)
    curve = estimate_curve(t, spec, grid, target)
    assert list(curve.failures) == sorted(curve.failures)
    raised = set()
    for i, x in enumerate(grid.tolist()):
        if family is KernelFamily.GAMMA and x < 0:
            assert curve.failures[i] == "outside Gamma kernel support"
            with pytest.raises(ValueError):
                local_linear_fit(t, target, spec, x)
            continue
        try:
            fit = local_linear_fit(t, target, spec, x)
        except (SparseRegionError, DegenerateDesignError) as exc:
            raised.add(type(exc))
            assert curve.failures[i] == str(exc)
            assert np.isnan(curve.values[i]) and np.isnan(curve.slopes[i])
            continue
        assert i not in curve.failures
        assert curve.values[i] == fit.intercept
        assert curve.slopes[i] == fit.slope
    assert raised == {SparseRegionError, DegenerateDesignError}

    if family is KernelFamily.GAMMA:
        grid[7] = np.nan
        with pytest.raises(ValueError):
            estimate_curve(t, spec, grid, target)


def cubic_test_triples():
    """1,000 triples spread over [0.2, 1] plus two clusters of 10 far from
    them: at weight and design point 50 (no design spread), and at weight
    point 5 with design points 4.9 and 5.1 only (a rank-deficient cubic)."""
    rng = np.random.default_rng(43)
    w = np.concatenate(
        [rng.uniform(0.2, 1.0, 980), np.full(10, 50.0), np.full(10, 5.0)]
    )
    d = np.concatenate(
        [w[:980] + 0.01 * rng.standard_normal(980), np.full(10, 50.0), [4.9, 5.1] * 5]
    )
    resp = rng.standard_normal(1000)
    return RegressionTriples(
        delta=0.1, weight_points=w, design_points=d, drift=resp,
        cond_var=resp**2, moment4=resp**4, moment6=np.abs(resp) ** 6,
    )


@pytest.mark.parametrize("target", [Target.DRIFT, Target.COND_VARIANCE])
@pytest.mark.parametrize("family", [KernelFamily.GAMMA, KernelFamily.GAUSSIAN])
def test_curvature_batches_match_the_per_point_cubic(family, target, curvature_oracle):
    # several 11-row batches; inside them a point below 0, the Gamma
    # shape-0 point x = 0, a point with no kernel mass (x = 1000), one with
    # no design spread (50) and one with a rank-deficient cubic (5)
    t = cubic_test_triples()
    batch = locallinear._BATCH_TERMS // (11 * len(t.drift))
    grid = np.linspace(0.25, 0.95, 26)
    for i, x in [(3, -0.1), (5, 0.0), (11, 1000.0), (13, 50.0), (17, 5.0)]:
        grid = np.insert(grid, i, x)
    assert 1 < batch and 3 * batch < grid.size
    spec = KernelSpec(family, 0.02)
    fitter = LinearFitter(family, t.weight_points, t.design_points, t.response(target))
    values, errors = fitter.curvatures(spec.bandwidth, grid)
    kinds = set()
    for i, x in enumerate(grid.tolist()):
        try:
            want = curvature_oracle(t, target, spec, x)
        except (ValueError, SparseRegionError, DegenerateDesignError) as exc:
            kinds.add(" ".join(str(exc).split()[:2]))
            assert type(errors[i]) is type(exc) and str(errors[i]) == str(exc)
            assert np.isnan(values[i])
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                estimate_second_derivative(t, target, spec, x)
            continue
        assert errors[i] is None
        assert values[i] == want
        assert estimate_second_derivative(t, target, spec, x) == want
    expected = {"no usable", "no design", "local cubic"}
    if family is KernelFamily.GAMMA:
        expected.add("Gamma kernel")
    assert kinds == expected


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("family", [KernelFamily.GAMMA, KernelFamily.GAUSSIAN])
def test_non_finite_points_raise_in_both_families(family, x):
    # one rule for every family, and no numpy warning on the way
    t = make_triples(np.random.default_rng(3))
    spec = KernelSpec(family, 0.1)
    fitter = LinearFitter(family, t.weight_points, t.design_points, t.drift)
    for call in (
        lambda: fitter.fits(0.1, [0.5, x]),
        lambda: fitter.curvatures(0.1, [0.5, x]),
        lambda: estimate_curve(t, spec, [0.5, x], Target.DRIFT),
        lambda: local_linear_fit(t, Target.DRIFT, spec, x),
        lambda: estimate_second_derivative(t, Target.DRIFT, spec, x),
    ):
        with pytest.raises(ValueError, match=f"must be finite, got {x!r}"):
            call()


def test_curve_memory_does_not_grow_with_the_grid():
    """Peak new allocation of one curve stays under one bound, whatever the
    grid size: the fitter works a batch of grid points at a time (measured
    0.9 MB at n = 2400 for 10 and 400 points; the 400 x 2400 weight matrix
    alone would be 7.7 MB)."""
    bound = 1_500_000
    rng = np.random.default_rng(6)
    t = make_triples(rng, n=2400)
    spec = KernelSpec(KernelFamily.GAMMA, 0.1)
    for size in (10, 400):
        grid = np.linspace(0.1, 1.0, size)
        tracemalloc.start()
        try:
            estimate_curve(t, spec, grid, Target.DRIFT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (size, peak)
