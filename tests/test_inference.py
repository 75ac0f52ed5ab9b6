"""Asymptotic moments, confidence bands, jump identification and jump test.

Oracles: the asymptotic moment formulas are re-derived as direct
arithmetic inside each test; jump identification is checked by composing
the forward moment map and inverting it; the jump statistic has frozen
values computed from the ratio formula with plain numpy, plus structural
properties (scale invariance, sign under jumps).
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jdsmooth import locallinear
from jdsmooth.errors import DataError, NotIdentifiableError
from jdsmooth.inference import (
    BandCompanions,
    asymptotic_moments,
    band_companions,
    bs_jump_test,
    confidence_band,
    identify_jump_components,
)
from jdsmooth.kernels import (
    KernelFamily,
    KernelPlan,
    KernelSpec,
    PointRegime,
    RegimeKind,
    boundary_variance_constant,
)
from jdsmooth.locallinear import (
    CurveEstimate,
    Target,
    estimate_curve,
    estimate_density,
    estimate_m_curve,
    estimate_moment_curve,
)
from jdsmooth.proxy import ProxySeries, build_proxy, build_regression_triples
from jdsmooth.simulate import baseline_model, simulate_path

SQRT_PI2 = 2.0 * math.sqrt(math.pi)


def test_asymptotic_moments_interior_drift():
    x, h, n, delta = 0.2, 0.05, 1000, 0.01
    curv, m_hat, p_hat = 3.0, 0.12, 2.5
    mom = asymptotic_moments(
        x, h, n, delta, Target.DRIFT, curv, m_hat, p_hat,
        PointRegime(RegimeKind.INTERIOR),
    )
    assert mom.bias == pytest.approx(h * (x / 2.0) * curv, rel=1e-12)
    assert mom.variance == pytest.approx(
        m_hat / (SQRT_PI2 * math.sqrt(x) * p_hat), rel=1e-12
    )
    assert mom.rate == pytest.approx(math.sqrt(n * delta * math.sqrt(h)), rel=1e-12)


def test_asymptotic_moments_boundary_variance_target():
    x, h, n, delta = 0.03, 0.03, 500, 0.02
    kappa = 1.0
    curv, c4_hat, p_hat = -2.0, 4e-5, 1.8
    mom = asymptotic_moments(
        x, h, n, delta, Target.COND_VARIANCE, curv, c4_hat, p_hat,
        PointRegime(RegimeKind.BOUNDARY, kappa),
    )
    assert mom.bias == pytest.approx(h * h * (2.0 + kappa) / 2.0 * curv, rel=1e-12)
    assert mom.variance == pytest.approx(
        boundary_variance_constant(kappa) * c4_hat / p_hat, rel=1e-12
    )
    assert mom.rate == pytest.approx(math.sqrt(n * delta * h), rel=1e-12)


def test_asymptotic_moments_gaussian_family():
    x, h, n, delta = 0.2, 0.05, 1000, 0.01
    curv, m_hat, p_hat = 3.0, 0.12, 2.5
    mom = asymptotic_moments(
        x, h, n, delta, Target.DRIFT, curv, m_hat, p_hat,
        PointRegime(RegimeKind.INTERIOR), family=KernelFamily.GAUSSIAN,
    )
    assert mom.bias == pytest.approx(h * h / 2.0 * curv, rel=1e-12)
    assert mom.variance == pytest.approx(m_hat / (SQRT_PI2 * p_hat), rel=1e-12)
    assert mom.rate == pytest.approx(math.sqrt(n * delta * h), rel=1e-12)


def test_asymptotic_moments_validation():
    reg = PointRegime(RegimeKind.INTERIOR)
    with pytest.raises(ValueError):
        asymptotic_moments(0.2, 0.05, 1000, 0.01, Target.DRIFT, 1.0, -0.1, 2.0, reg)
    with pytest.raises(ValueError):
        asymptotic_moments(0.2, 0.05, 1000, 0.01, Target.DRIFT, 1.0, 0.1, 0.0, reg)
    with pytest.raises(ValueError):
        asymptotic_moments(0.0, 0.05, 1000, 0.01, Target.DRIFT, 1.0, 0.1, 2.0, reg)


def _toy_curve(values, target=Target.DRIFT, h=0.05, family=KernelFamily.GAMMA):
    values = np.asarray(values, dtype=float)
    grid = np.linspace(0.3, 0.3 + 0.1 * (values.size - 1), values.size)
    return CurveEstimate(
        grid=grid,
        values=values,
        slopes=np.zeros_like(values),
        kernel=KernelSpec(family, h),
        target=target,
    )


def test_confidence_band_geometry():
    curve = _toy_curve([1.0, 2.0, 3.0])
    comp = BandCompanions(
        variance_numerator=np.array([0.12, 0.12, 0.12]),
        density=np.array([2.0, 2.0, 2.0]),
        curvature=np.array([3.0, 3.0, 3.0]),
    )
    n, delta = 1000, 0.01
    band = confidence_band(curve, comp, alpha=0.05, n=n, delta=delta)
    from scipy.stats import norm

    z = norm.ppf(0.975)
    for i, x in enumerate(curve.grid):
        mom = asymptotic_moments(
            float(x), 0.05, n, delta, Target.DRIFT, 3.0, 0.12, 2.0,
            band.regimes[i],
        )
        center = curve.values[i] - mom.bias
        half = z * math.sqrt(mom.variance) / mom.rate
        assert band.center[i] == pytest.approx(center, rel=1e-12)
        assert band.lower[i] == pytest.approx(center - half, rel=1e-12)
        assert band.upper[i] == pytest.approx(center + half, rel=1e-12)
        assert band.lower[i] < band.center[i] < band.upper[i]
    assert not band.clipped.any()

    raw = confidence_band(curve, comp, alpha=0.05, n=n, delta=delta, bias_correct=False)
    np.testing.assert_allclose(raw.center, curve.values)


def test_confidence_band_variance_target_clips_at_zero():
    curve = _toy_curve([0.001, -0.002], target=Target.COND_VARIANCE)
    comp = BandCompanions(
        variance_numerator=np.array([4e-5, 4e-5]),
        density=np.array([2.0, 2.0]),
        curvature=np.array([0.0, 0.0]),
    )
    band = confidence_band(curve, comp, alpha=0.05, n=1000, delta=0.01)
    assert band.lower[0] == 0.0 and band.lower[1] == 0.0
    assert band.clipped[0] and band.clipped[1]
    assert np.all(band.upper >= 0.0)


def test_confidence_band_gaps():
    curve = _toy_curve([1.0, 2.0, 3.0])
    comp = BandCompanions(
        variance_numerator=np.array([0.12, -0.5, 0.12]),
        density=np.array([2.0, 2.0, 0.0]),
        curvature=np.array([3.0, 3.0, 3.0]),
    )
    band = confidence_band(curve, comp, alpha=0.05, n=1000, delta=0.01)
    assert 1 in band.gaps and 2 in band.gaps
    assert np.isnan(band.lower[1]) and np.isnan(band.lower[2])
    assert np.isfinite(band.lower[0])


@pytest.mark.parametrize("curve, kwargs", [
    pytest.param(_toy_curve([1.0, 2.0, 3.0]), {"n": 0}, id="n_0"),
    pytest.param(_toy_curve([1.0, 2.0, 3.0]), {"delta": math.nan}, id="delta_nan"),
    pytest.param(
        _toy_curve([1.0, 2.0, 3.0], target=Target.FOURTH_MOMENT), {},
        id="fourth_moment",
    ),
])
def test_confidence_band_rejects_bad_arguments(curve, kwargs):
    """Arguments raise up front instead of turning every point into a gap."""
    comp = BandCompanions(
        variance_numerator=np.array([0.12, 0.12, 0.12]),
        density=np.array([2.0, 2.0, 2.0]),
        curvature=np.array([3.0, 3.0, 3.0]),
    )
    args = {"alpha": 0.05, "n": 1000, "delta": 0.01, **kwargs}
    with pytest.raises(ValueError):
        confidence_band(curve, comp, **args)


@pytest.mark.parametrize("target", [Target.DRIFT, Target.COND_VARIANCE])
def test_confidence_band_knife_edge_uses_larger_variance(target):
    h = 0.05
    tau = 20.0
    x = tau * h
    curve = CurveEstimate(
        grid=np.array([x]),
        values=np.array([1.0]),
        slopes=np.array([0.0]),
        kernel=KernelSpec(KernelFamily.GAMMA, h),
        target=target,
    )
    comp = BandCompanions(
        variance_numerator=np.array([0.12]),
        density=np.array([2.0]),
        curvature=np.array([0.0]),
    )
    band = confidence_band(curve, comp, alpha=0.05, n=1000, delta=0.01)
    mom_i = asymptotic_moments(
        x, h, 1000, 0.01, target, 0.0, 0.12, 2.0,
        PointRegime(RegimeKind.INTERIOR),
    )
    mom_b = asymptotic_moments(
        x, h, 1000, 0.01, target, 0.0, 0.12, 2.0,
        PointRegime(RegimeKind.BOUNDARY, x / h),
    )
    widest = max(
        math.sqrt(mom_i.variance) / mom_i.rate, math.sqrt(mom_b.variance) / mom_b.rate
    )
    from scipy.stats import norm

    half = norm.ppf(0.975) * widest
    assert band.upper[0] - band.center[0] == pytest.approx(half, rel=1e-12)


def test_boundary_band_never_wider_than_interior_band():
    # squared half-width ratio boundary/interior at x = kappa h is
    # C(kappa) 2 sqrt(pi kappa); below 1 means the knife-edge rule keeps
    # the interior band wherever tau lies
    for kappa in np.geomspace(1e-6, 1e4, 200):
        ratio = boundary_variance_constant(kappa) * SQRT_PI2 * math.sqrt(kappa)
        assert ratio < 1.0


def test_confidence_band_records_its_moments():
    curve = _toy_curve([1.0, 2.0, 3.0])
    comp = BandCompanions(
        variance_numerator=np.array([0.12, 0.12, 0.12]),
        density=np.array([2.0, 0.0, 2.0]),
        curvature=np.array([3.0, 3.0, -1.0]),
    )
    band = confidence_band(curve, comp, alpha=0.05, n=1000, delta=0.01)
    assert list(band.gaps) == [1]
    for arr in (band.bias, band.variance, band.rate):
        assert np.isnan(arr[1])
    for i in (0, 2):
        mom = asymptotic_moments(
            float(curve.grid[i]), 0.05, 1000, 0.01, Target.DRIFT,
            float(comp.curvature[i]), 0.12, 2.0, band.regimes[i],
        )
        assert (band.bias[i], band.variance[i], band.rate[i]) == (
            mom.bias, mom.variance, mom.rate
        )
        assert band.center[i] == curve.values[i] - mom.bias


def test_nan_curvature_is_a_gap_only_with_bias_correction():
    # the curvature enters only the bias, so without bias correction the
    # point gets its band, centered on the estimate itself
    curve = _toy_curve([1.0, 2.0, 3.0])
    comp = BandCompanions(
        variance_numerator=np.array([0.12, 0.12, 0.12]),
        density=np.array([2.0, 2.0, 2.0]),
        curvature=np.array([3.0, np.nan, 3.0]),
    )
    band = confidence_band(curve, comp, alpha=0.05, n=1000, delta=0.01)
    assert band.gaps == {1: "unusable curvature estimate nan"}
    assert np.isnan(band.center[1]) and np.isnan(band.bias[1])
    plain = confidence_band(
        curve, comp, alpha=0.05, n=1000, delta=0.01, bias_correct=False
    )
    assert plain.gaps == {}
    mom = asymptotic_moments(
        0.4, 0.05, 1000, 0.01, Target.DRIFT, 0.0, 0.12, 2.0, plain.regimes[1]
    )
    assert (plain.center[1], plain.bias[1], plain.variance[1]) == (
        2.0, 0.0, mom.variance
    )
    assert plain.lower[1] < 2.0 < plain.upper[1]


@pytest.fixture(scope="module")
def sim_series():
    path = simulate_path(baseline_model(), 5.0, 2000, 3)
    p = build_proxy(path.y, path.delta)
    return p, build_regression_triples(p)


def test_band_companions_per_target_and_nan_outside_support(
    sim_series, curvature_oracle
):
    p, t = sim_series
    spec = KernelSpec(KernelFamily.GAMMA, 0.08)
    grid = np.array([-0.05, 0.05, 0.12])
    numerators = {
        Target.DRIFT: estimate_m_curve(t, spec, grid).values,
        Target.COND_VARIANCE: estimate_moment_curve(t, spec, grid, 4).values,
    }
    for target, numerator in numerators.items():
        _, comp = band_companions(p, spec, grid, target)
        for arr in (comp.variance_numerator, comp.density, comp.curvature):
            assert np.isnan(arr[0])
        np.testing.assert_array_equal(comp.variance_numerator, numerator)
        for i in (1, 2):
            x = float(grid[i])
            assert comp.density[i] == estimate_density(p, spec, x)
            assert comp.curvature[i] == curvature_oracle(t, target, spec, x)
    with pytest.raises(ValueError):
        band_companions(p, spec, grid, Target.FOURTH_MOMENT)


@pytest.mark.parametrize("target", [Target.DRIFT, Target.COND_VARIANCE])
@pytest.mark.parametrize("family", [KernelFamily.GAMMA, KernelFamily.GAUSSIAN])
def test_band_curve_is_the_estimated_curve(sim_series, family, target):
    # the curve comes from the band's own two-target fit; points below 0,
    # at 0 and with no kernel mass (x = 40) included
    p, t = sim_series
    spec = KernelSpec(family, 0.08)
    grid = np.array([-0.05, 0.0, 0.05, 0.12, 0.2, 40.0])
    curve, _ = band_companions(p, spec, grid, target)
    want = estimate_curve(t, spec, grid, target)
    np.testing.assert_array_equal(curve.grid, want.grid)
    np.testing.assert_array_equal(curve.values, want.values)
    np.testing.assert_array_equal(curve.slopes, want.slopes)
    assert curve.failures == want.failures and 5 in curve.failures
    assert curve.kernel == spec and curve.target is target


def test_band_weighs_each_point_once_at_the_bandwidth(sim_series, monkeypatch):
    """The curve and its companion share one weight block per batch: the
    triples' plan is asked for each supported point's weights at h once,
    in batches sized for 7 product rows per point."""
    p, t = sim_series
    calls = []
    weights = KernelPlan.weights

    def spy(plan, h, xs):
        calls.append((plan.size, h, np.atleast_1d(xs).tolist()))
        return weights(plan, h, xs)

    monkeypatch.setattr(KernelPlan, "weights", spy)
    spec = KernelSpec(KernelFamily.GAMMA, 0.08)
    grid = np.concatenate([[-0.05], np.linspace(0.0, 0.3, 11)])
    band_companions(p, spec, grid, Target.DRIFT)
    at_h = [xs for size, h, xs in calls if size == len(t) and h == spec.bandwidth]
    assert [x for xs in at_h for x in xs] == grid[1:].tolist()
    batch = locallinear._BATCH_TERMS // (7 * len(t))
    assert len(at_h) == -(-(grid.size - 1) // batch)


@pytest.mark.parametrize("family", [KernelFamily.GAMMA, KernelFamily.GAUSSIAN])
def test_band_companions_memory_does_not_grow_with_the_grid(family):
    """Peak new allocation stays under one bound whatever the grid size:
    the numerator and the curvature are fitted a batch of points at a time
    (measured 0.65-0.72 MB at n = 2400 for 10 and 400 points, the triples
    band_companions builds included; the 400 x 2400 weight matrix alone
    would be 7.7 MB)."""
    path = simulate_path(baseline_model(), 5.0, 2400, 3)
    p = build_proxy(path.y, path.delta)
    spec = KernelSpec(family, 0.05)
    for size in (10, 400):
        grid = np.linspace(-0.02, 0.3, size)
        tracemalloc.start()
        try:
            band_companions(p, spec, grid, Target.DRIFT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1_500_000, (size, peak)


def test_band_companions_never_raise_when_every_point_fails(sim_series):
    p, t = sim_series
    _, comp = band_companions(
        p, KernelSpec(KernelFamily.GAMMA, 0.08), [-0.2, -0.1], Target.DRIFT
    )
    for arr in (comp.variance_numerator, comp.density, comp.curvature):
        assert np.all(np.isnan(arr))


@pytest.mark.parametrize("grid", [[], [[0.05, 0.1], [0.12, 0.2]]], ids=["empty", "2d"])
def test_band_companions_reject_a_grid_that_is_not_a_list_of_points(sim_series, grid):
    # an argument error, as for estimate_curve, whose curve the band is
    p, t = sim_series
    spec = KernelSpec(KernelFamily.GAUSSIAN, 0.08)
    for call in (band_companions, lambda _, *a: estimate_curve(t, *a)):
        with pytest.raises(ValueError, match="nonempty one-dimensional"):
            call(p, spec, grid, Target.DRIFT)


@pytest.mark.parametrize("c", [0.5, 3.0])
def test_estimates_and_drift_band_scale_with_the_data(c):
    # Y -> cY, h -> ch, grid -> c grid: each kernel weight scales by the
    # uniform factor 1/c, the density by 1/c and the drift curvature by
    # 1/c, so in every regime the drift, its bias and its half-width scale
    # by c and M by c^2.  y0 = 0 keeps differencing cY from cancelling
    # digits against a large level.
    path = simulate_path(dataclasses.replace(baseline_model(), y0=0.0), 10.0, 5000, 4)
    grid = np.array([0.02, 0.05, 0.15, 0.22, 0.25])
    h = 0.01

    def fit(scale):
        p = build_proxy(scale * path.y, path.delta)
        t = build_regression_triples(p)
        out = {}
        for family in KernelFamily:
            spec = KernelSpec(family, scale * h)
            g = scale * grid
            drift = estimate_curve(t, spec, g, Target.DRIFT)
            m = estimate_curve(t, spec, g, Target.COND_VARIANCE)
            band = confidence_band(
                drift, band_companions(p, spec, g, Target.DRIFT)[1], 0.05,
                n=len(p), delta=p.delta,
            )
            out[family] = (drift, m, band)
        return out

    base, scaled = fit(1.0), fit(c)
    for family in KernelFamily:
        (d0, m0, b0), (d1, m1, b1) = base[family], scaled[family]
        np.testing.assert_allclose(d1.values, c * d0.values, rtol=1e-9, atol=0)
        np.testing.assert_allclose(m1.values, c * c * m0.values, rtol=1e-9, atol=0)
        for name in ("center", "lower", "upper"):
            np.testing.assert_allclose(
                getattr(b1, name), c * getattr(b0, name), rtol=1e-9, atol=0
            )
        assert b0.gaps == b1.gaps == {}
        assert [r.kind for r in b1.regimes] == [r.kind for r in b0.regimes]
        for r0, r1 in zip(b0.regimes, b1.regimes):
            assert r1.kappa == pytest.approx(r0.kappa, rel=1e-12)
    kinds = [r.kind for r in base[KernelFamily.GAMMA][2].regimes]
    assert RegimeKind.BOUNDARY in kinds and RegimeKind.INTERIOR in kinds


def test_jump_identification_round_trip():
    sigma2, lam, sigma_z2 = 0.09, 2.0, 0.0013
    m2 = sigma2 + lam * sigma_z2
    m4 = 3.0 * lam * sigma_z2**2
    m6 = 15.0 * lam * sigma_z2**3
    comp = identify_jump_components(m2, m4, m6)
    assert comp.sigma2 == pytest.approx(sigma2, rel=1e-10)
    assert comp.lam == pytest.approx(lam, rel=1e-10)
    assert comp.sigma_z2 == pytest.approx(sigma_z2, rel=1e-10)
    assert comp.flags == ()


@given(
    sigma2=st.floats(1e-4, 10.0),
    lam=st.floats(1e-3, 50.0),
    sigma_z2=st.floats(1e-6, 1.0),
)
@settings(max_examples=80, deadline=None)
def test_jump_identification_inverts_forward_map(sigma2, lam, sigma_z2):
    m2 = sigma2 + lam * sigma_z2
    m4 = 3.0 * lam * sigma_z2**2
    m6 = 15.0 * lam * sigma_z2**3
    comp = identify_jump_components(m2, m4, m6)
    assert comp.sigma2 == pytest.approx(sigma2, rel=1e-8, abs=1e-12)
    assert comp.lam == pytest.approx(lam, rel=1e-8)
    assert comp.sigma_z2 == pytest.approx(sigma_z2, rel=1e-8)


def test_jump_identification_flags_and_errors():
    with pytest.raises(NotIdentifiableError):
        identify_jump_components(0.1, 0.0, 1e-5)
    with pytest.raises(NotIdentifiableError):
        identify_jump_components(0.1, -1e-5, 1e-5)
    with pytest.raises(NotIdentifiableError):
        identify_jump_components(0.1, 1e-5, 0.0)
    comp = identify_jump_components(0.1, 1e-5, -1e-7)
    assert "size_var_negative" in comp.flags
    # huge jump variance share drives the diffusion part negative
    comp2 = identify_jump_components(0.01, 3.0 * 5.0 * 0.09**2, 15.0 * 5.0 * 0.09**3)
    assert "sigma2_negative" in comp2.flags
    assert comp2.sigma2 < 0


FROZEN_RETURNS = np.array(
    [0.5, -0.3, 0.4, -0.6, 0.2, 0.1, -0.4, 0.3, -0.2, 0.5, -0.1, 0.3]
)


def test_bs_jump_test_frozen_values():
    res = bs_jump_test(FROZEN_RETURNS)
    assert res.realized_variance == pytest.approx(1.55, rel=1e-12)
    assert res.bipower_variation == pytest.approx(1.7992757925105178, rel=1e-12)
    assert res.quadpower == pytest.approx(3.268812977640796, rel=1e-12)
    assert res.statistic == pytest.approx(0.7104529331269811, rel=1e-12)
    assert not res.reject


def test_bs_jump_test_scale_invariant():
    a = bs_jump_test(FROZEN_RETURNS)
    b = bs_jump_test(FROZEN_RETURNS * 250.0)
    assert a.statistic == pytest.approx(b.statistic, rel=1e-12)


def test_bs_jump_test_null_and_alternative():
    rng = np.random.default_rng(6)
    smooth = rng.standard_normal(5000) * 0.01
    res = bs_jump_test(smooth)
    assert abs(res.statistic) < 3.0
    jumpy = smooth.copy()
    jumpy[::250] += rng.choice([-1.0, 1.0], jumpy[::250].size) * 0.2
    res_j = bs_jump_test(jumpy)
    assert res_j.statistic < -1.96
    assert res_j.reject


def test_bs_jump_test_proxy_input_uses_level_times_delta():
    rng = np.random.default_rng(7)
    values = rng.standard_normal(300)
    p = ProxySeries(delta=0.02, values=values)
    from_proxy = bs_jump_test(p)
    direct = bs_jump_test(values * 0.02)
    assert from_proxy.statistic == pytest.approx(direct.statistic, rel=1e-12)


def test_bs_jump_test_rejects_degenerate_input():
    with pytest.raises(DataError, match="at least 10 returns"):
        bs_jump_test(np.ones(5))
    with pytest.raises(DataError):
        bs_jump_test(np.zeros(50))
