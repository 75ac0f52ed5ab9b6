"""Bandwidth selection tests.

The plug-in formula oracle is direct arithmetic on the asymptotic
mean-squared-error expressions; the scaling laws below were derived from
the exponents by hand (multiplying n*delta by 2^(5/2) must halve the
interior h, by 2^5 the boundary h).  The block cross-validation oracle
refits every fold through the public local linear fit on triples rebuilt
without the held-out block.
"""

import math
import tracemalloc

import numpy as np
import pytest

from jdsmooth import locallinear, pool, summation
from jdsmooth.bandwidth import (
    BandwidthMethod,
    asymptotic_h_opt,
    block_cv,
    default_h_grid,
    mse_grid_search,
    rule_of_thumb,
)
from jdsmooth.errors import DataError, DegenerateDesignError, SparseRegionError
from jdsmooth.kernels import (
    KernelFamily,
    KernelSpec,
    PointRegime,
    RegimeKind,
    boundary_variance_constant,
)
from jdsmooth.locallinear import Target, local_linear_fit
from jdsmooth.proxy import (
    ProxySeries,
    RegressionTriples,
    build_proxy,
    build_regression_triples,
)
from jdsmooth.simulate import baseline_model, simulate_path


def test_rule_of_thumb_interior_and_boundary():
    values = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    p = ProxySeries(delta=0.1, values=values)
    s = float(np.std(values, ddof=1))
    choice = rule_of_thumb(p, c=2.0, T=10.0)
    assert choice.h == pytest.approx(2.0 * s * 10.0 ** (-0.4))
    assert choice.method is BandwidthMethod.RULE_OF_THUMB
    assert choice.c == 2.0
    bchoice = rule_of_thumb(p, c=2.0, T=10.0, regime=RegimeKind.BOUNDARY)
    assert bchoice.h == pytest.approx(2.0 * s * 10.0 ** (-0.2))


def test_rule_of_thumb_rejects_constant_series():
    p = ProxySeries(delta=0.1, values=np.ones(10))
    with pytest.raises(DataError, match="no spread"):
        rule_of_thumb(p, c=2.0, T=10.0)


def test_asymptotic_h_opt_interior_formula():
    # direct arithmetic oracle for the interior plug-in
    x, n, delta = 0.2, 1000, 0.01
    m_hat, p_hat, curv = 0.11, 3.0, 4.0
    variance = m_hat / (2.0 * math.sqrt(math.pi) * math.sqrt(x) * p_hat)
    expected = (variance * 4.0 / (x * curv) ** 2 / (n * delta)) ** 0.4
    got = asymptotic_h_opt(
        x, n, delta, m_hat, p_hat, curv, PointRegime(RegimeKind.INTERIOR),
        Target.DRIFT,
    )
    assert got.h == pytest.approx(expected, rel=1e-12)
    assert got.method is BandwidthMethod.ASYMPTOTIC_PLUGIN


def test_asymptotic_h_opt_boundary_formula():
    x, n, delta = 0.02, 1000, 0.01
    kappa = 1.0
    m_hat, p_hat, curv = 0.11, 3.0, 4.0
    variance = boundary_variance_constant(kappa) * m_hat / p_hat
    expected = (variance * 4.0 / ((2.0 + kappa) * curv) ** 2 / (n * delta)) ** 0.2
    got = asymptotic_h_opt(
        x, n, delta, m_hat, p_hat, curv, PointRegime(RegimeKind.BOUNDARY, kappa),
        Target.DRIFT,
    )
    assert got.h == pytest.approx(expected, rel=1e-12)


def test_asymptotic_h_opt_scaling_laws():
    interior = PointRegime(RegimeKind.INTERIOR)
    boundary = PointRegime(RegimeKind.BOUNDARY, 1.0)
    base = asymptotic_h_opt(0.2, 1000, 0.01, 0.11, 3.0, 4.0, interior, Target.DRIFT)
    denser = asymptotic_h_opt(
        0.2, 1000 * 2**2.5, 0.01, 0.11, 3.0, 4.0, interior, Target.DRIFT
    )
    assert denser.h == pytest.approx(base.h / 2.0, rel=1e-9)
    bbase = asymptotic_h_opt(0.02, 1000, 0.01, 0.11, 3.0, 4.0, boundary, Target.DRIFT)
    bdenser = asymptotic_h_opt(
        0.02, 1000 * 2**5, 0.01, 0.11, 3.0, 4.0, boundary, Target.DRIFT
    )
    assert bdenser.h == pytest.approx(bbase.h / 2.0, rel=1e-9)


def test_asymptotic_h_opt_rejects_flat_curvature():
    interior = PointRegime(RegimeKind.INTERIOR)
    with pytest.raises(ValueError):
        asymptotic_h_opt(0.2, 1000, 0.01, 0.11, 3.0, 0.0, interior, Target.DRIFT)
    with pytest.raises(ValueError):
        asymptotic_h_opt(0.2, 1000, 0.01, 0.11, -1.0, 4.0, interior, Target.DRIFT)


@pytest.mark.parametrize(
    "regime",
    [PointRegime(RegimeKind.INTERIOR), PointRegime(RegimeKind.BOUNDARY, 1.0)],
    ids=["interior", "boundary"],
)
def test_asymptotic_h_opt_same_geometry_for_either_target(regime):
    """The drift and the conditional variance share bias and variance
    geometry, so on the same positive inputs the plug-in h is the same."""
    drift, variance = (
        asymptotic_h_opt(0.2, 1000, 0.01, 0.11, 3.0, 4.0, regime, target)
        for target in (Target.DRIFT, Target.COND_VARIANCE)
    )
    assert variance.h == drift.h


@pytest.mark.parametrize(
    "target, name",
    [(Target.DRIFT, "conditional variance"), (Target.COND_VARIANCE, "fourth moment")],
)
def test_asymptotic_h_opt_names_the_targets_numerator(target, name):
    interior = PointRegime(RegimeKind.INTERIOR)
    with pytest.raises(ValueError, match=f"^{name} must be"):
        asymptotic_h_opt(0.2, 1000, 0.01, -1e-4, 3.0, 4.0, interior, target)


@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("family", [KernelFamily.GAMMA, KernelFamily.GAUSSIAN])
def test_block_cv_matches_brute_force_leave_block_out(family, k):
    # proxy values dip below zero, so Gamma folds at x < 0 score the
    # penalty and negative weight points carry no Gamma weight
    rng = np.random.default_rng(11)
    p = ProxySeries(delta=0.1, values=0.5 * rng.standard_normal(80) + 0.6)
    assert np.any(p.values < 0)
    h_grid = np.array([0.08, 0.3, 1.0])
    choice = block_cv(p, h_grid=h_grid, k=k, family=family)

    t = build_regression_triples(p)
    proxy_idx = np.arange(len(t)) + t.source_offset
    penalty = float(np.var(t.drift))
    n = len(p)
    failures = 0
    for h, objective in zip(h_grid, choice.objectives):
        spec = KernelSpec(family, float(h))
        terms = []
        # fold centers are 1-based proxy indices i = k+1 .. n-k
        for i in range(k + 1, n - k + 1):
            keep = (proxy_idx < i - k) | (proxy_idx > i + k)
            rest = RegressionTriples(
                weight_points=t.weight_points[keep],
                design_points=t.design_points[keep],
                drift=t.drift[keep],
                cond_var=t.cond_var[keep],
                moment4=t.moment4[keep],
                moment6=t.moment6[keep],
            )
            x = float(p.values[i - 1])
            y_i = float(t.drift[i - t.source_offset])
            if family is KernelFamily.GAMMA and x < 0:
                terms.append(penalty)
                failures += 1
                continue
            try:
                fit = local_linear_fit(rest, Target.DRIFT, spec, x)
            except (SparseRegionError, DegenerateDesignError):
                terms.append(penalty)
                failures += 1
                continue
            r = y_i - fit.intercept
            terms.append(r * r)
        assert objective == math.fsum(terms) / n
    assert choice.failures == failures


def brute_force_block_cv(p, h_grid, k, family):
    """Block-CV objectives and failure count, one refit per fold on triples
    rebuilt without the held-out block."""
    t = build_regression_triples(p)
    proxy_idx = np.arange(len(t)) + t.source_offset
    penalty = float(np.var(t.drift))
    n = len(p)
    objectives, failures = [], 0
    for h in h_grid:
        spec = KernelSpec(family, float(h))
        terms = []
        for i in range(k + 1, n - k + 1):
            keep = (proxy_idx < i - k) | (proxy_idx > i + k)
            rest = RegressionTriples(
                weight_points=t.weight_points[keep],
                design_points=t.design_points[keep],
                drift=t.drift[keep],
                cond_var=t.cond_var[keep],
                moment4=t.moment4[keep],
                moment6=t.moment6[keep],
            )
            x = float(p.values[i - 1])
            if family is KernelFamily.GAMMA and x < 0:
                terms.append(penalty)
                failures += 1
                continue
            try:
                fit = local_linear_fit(rest, Target.DRIFT, spec, x)
            except (SparseRegionError, DegenerateDesignError):
                terms.append(penalty)
                failures += 1
                continue
            r = float(t.drift[i - t.source_offset]) - fit.intercept
            terms.append(r * r)
        objectives.append(math.fsum(terms) / n)
    return objectives, failures


@pytest.mark.parametrize("family", [KernelFamily.GAMMA, KernelFamily.GAUSSIAN])
def test_block_cv_batches_match_brute_force_leave_block_out(family, monkeypatch):
    # more triples than the column block, so one batch of folds spans two
    # column blocks; a fold count that is no multiple of the batch; one fold
    # centred exactly at x = 0 (Gamma shape 0); and a bandwidth small
    # enough for isolated folds to fail.  The block is narrowed to 1024
    # columns: at CHUNK's own width a batch of several folds of more
    # triples than CHUNK would outgrow _BATCH_TERMS
    chunk = 1024
    monkeypatch.setattr(summation, "CHUNK", chunk)
    monkeypatch.setattr(locallinear, "CHUNK", chunk)
    n, k = chunk + 80, 2
    rng = np.random.default_rng(23)
    values = 0.5 * rng.standard_normal(n) + 0.6
    values[400] = 0.0
    p = ProxySeries(delta=0.1, values=values)
    triples = n - 2
    batch = locallinear._BATCH_TERMS // (5 * triples)
    assert triples > chunk and 1 < batch and (n - 2 * k) % batch
    h_grid = np.array([0.001, 0.3])
    choice = block_cv(p, h_grid=h_grid, k=k, family=family)
    objectives, failures = brute_force_block_cv(p, h_grid, k, family)
    assert list(choice.objectives) == objectives
    assert choice.failures == failures
    assert 0 < failures


def test_block_cv_memory_does_not_grow_with_candidates_or_folds():
    """Peak new allocation of one call stays under one bound: one fold
    batch's weights, products and summation scratch plus the series,
    whatever the grid or the number of folds (measured 1.3-1.6 MB at
    n = 600 and 2400 on one CPU)."""
    bound = 2_500_000
    rng = np.random.default_rng(5)
    for n, count, k in [(600, 2, None), (600, 12, None), (600, 2, 20), (2400, 2, None)]:
        p = ProxySeries(delta=0.01, values=0.5 * rng.standard_normal(n) + 0.6)
        tracemalloc.start()
        try:
            block_cv(p, h_grid=np.geomspace(0.05, 0.5, count), k=k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (n, count, k, peak)


def test_block_cv_memory_on_one_cpu_does_not_grow_with_candidates_or_folds(
    monkeypatch,
):
    """The bound above, with every fold fitted in this process: on more
    than one usable CPU the fold batches are allocated by the pool's
    workers, where tracemalloc does not see them."""
    monkeypatch.setattr(pool, "usable_cpus", lambda: 1)
    test_block_cv_memory_does_not_grow_with_candidates_or_folds()


def test_block_cv_default_k_quarter_power():
    rng = np.random.default_rng(1)
    p = ProxySeries(delta=0.1, values=np.abs(rng.standard_normal(10000)) + 0.1)
    choice = block_cv(p, h_grid=np.array([0.5]))
    assert choice.k == 10


def test_block_cv_selects_argmin_of_score_curve():
    # the affine drift 1 - 10x is fit exactly at every bandwidth, so the
    # score curve has no bias-driven interior minimum; the contract is
    # that the choice is the argmin of the reported objectives with
    # finite scores on the whole grid
    model = baseline_model()
    path = simulate_path(model, T=10.0, n=1000, seed=7)
    p = build_proxy(path.y, path.delta)
    grid = default_h_grid(p)[::2]
    choice = block_cv(p, h_grid=grid)
    assert choice.method is BandwidthMethod.BLOCK_CV
    assert choice.objectives.size == grid.size
    assert np.all(np.isfinite(choice.objectives))
    assert choice.h == grid[int(np.argmin(choice.objectives))]
    assert choice.k >= 1
    rerun = block_cv(p, h_grid=grid)
    assert rerun.h == choice.h
    assert np.array_equal(rerun.objectives, choice.objectives)


def test_block_cv_rejects_short_series():
    p = ProxySeries(delta=0.1, values=np.abs(np.random.default_rng(3).standard_normal(12)))
    with pytest.raises(DataError, match="too short"):
        block_cv(p, h_grid=np.array([0.3]), k=4)


@pytest.mark.parametrize("h_grid", [[0.1, math.nan], [math.inf]])
def test_block_cv_rejects_non_finite_candidates_before_scoring(monkeypatch, h_grid):
    """A NaN or infinite candidate fails the up-front check, before any
    candidate is scored on the pool."""
    calls = []
    monkeypatch.setattr(pool, "map_in_order", lambda *args: calls.append(args))
    rng = np.random.default_rng(3)
    p = ProxySeries(delta=0.01, values=0.5 * rng.standard_normal(200) + 0.6)
    with pytest.raises(ValueError, match="^h_grid must be positive and finite, got"):
        block_cv(p, h_grid=np.array(h_grid))
    assert calls == []


def test_default_h_grid_spans_rule_of_thumb():
    rng = np.random.default_rng(2)
    p = ProxySeries(delta=0.01, values=np.abs(rng.standard_normal(500)) + 0.05)
    grid = default_h_grid(p)
    assert grid.size == 25
    assert np.all(np.diff(grid) > 0)
    t = p.delta * len(p)
    rot = rule_of_thumb(p, c=2.0, T=t).h
    assert grid[0] == pytest.approx(0.2 * rot)
    assert grid[-1] == pytest.approx(5.0 * rot)


def test_mse_grid_search_finds_known_scale():
    # truth is the baseline drift; the search scores candidate scale
    # constants against it and must return the argmin of its own curve
    model = baseline_model()
    path = simulate_path(model, T=10.0, n=1000, seed=21)
    p = build_proxy(path.y, path.delta)
    c_grid = np.linspace(0.5, 5.0, 10)
    eval_grid = np.linspace(0.02, 0.25, 20)

    choice = mse_grid_search(
        lambda x: model.mu(x), p, c_grid, T=10.0, eval_grid=eval_grid
    )
    assert choice.method is BandwidthMethod.MSE_GRID
    assert choice.candidates.size == 10
    best = int(np.argmin(choice.objectives))
    assert choice.c == pytest.approx(c_grid[best])
    s = float(np.std(p.values, ddof=1))
    assert choice.h == pytest.approx(c_grid[best] * s * 10.0 ** (-0.4))


def test_mse_grid_search_tie_breaks_smallest():
    # a constant objective cannot happen with real fits, so check the
    # tie-break contract directly on the reported curve
    model = baseline_model()
    path = simulate_path(model, T=10.0, n=400, seed=4)
    p = build_proxy(path.y, path.delta)
    choice = mse_grid_search(
        lambda x: model.mu(x),
        p,
        np.array([2.0, 2.0]),
        T=10.0,
        eval_grid=np.linspace(0.05, 0.2, 5),
    )
    assert choice.c == 2.0


def test_mse_grid_search_candidate_failing_everywhere_scores_inf():
    """A candidate with no usable point keeps objective inf and adds every
    grid point to the failure count; the others are scored as usual."""
    model = baseline_model()
    path = simulate_path(model, T=10.0, n=400, seed=4)
    p = build_proxy(path.y, path.delta)
    # far above the data: at the smallest constant the Gamma kernel puts
    # no mass on any observation, at the larger ones it does
    eval_grid = np.array([2.0, 2.5, 3.0])
    choice = mse_grid_search(
        lambda x: model.mu(x), p, np.array([0.01, 50.0, 80.0]), T=10.0,
        eval_grid=eval_grid,
    )
    assert choice.objectives[0] == np.inf
    assert np.all(np.isfinite(choice.objectives[1:]))
    assert choice.failures == eval_grid.size
    assert choice.c in (50.0, 80.0)
