"""Path simulator tests.

The Euler recursion with everything stochastic switched off is simple
enough to check by hand.  With noise on, reproducibility, jump
bookkeeping, and the closed-form relation between the integrated series
and the state recursion pin the implementation down.
"""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from jdsmooth.inference import identify_jump_components
from jdsmooth.proxy import Target
from jdsmooth.simulate import (
    ModelSpec,
    baseline_model,
    replicate_seed,
    simulate_path,
    true_moments,
)


def _constant_drift_model():
    return ModelSpec(
        drift_intercept=1.0,
        drift_slope=0.0,
        diffusion_const=0.0,
        diffusion_quad=0.0,
        jump_total=0.0,
        jump_size_std=0.0,
        x0=0.0,
        y0=5.0,
    )


def _indexed_euler(model, T, n, seed):
    """The Euler stepper as a numpy-indexed loop over numpy scalars: the
    same draws, the same operation order and the same s2 > 0 guard as
    ``simulate_path``, writing each step into preallocated arrays."""
    delta = float(T) / n
    rng = np.random.default_rng(int(seed))
    count = int(rng.poisson(model.jump_total)) if model.jump_total > 0 else 0
    if count > 0:
        times = rng.uniform(0.0, float(T), count)
        sizes = rng.normal(model.jump_size_mean, model.jump_size_std, count)
        order = np.argsort(times, kind="stable")
        times, sizes = times[order], sizes[order]
    else:
        times = np.empty(0)
        sizes = np.empty(0)
    jump_in_step = np.zeros(n)
    if count > 0:
        idx = np.minimum((times / delta).astype(np.int64), n - 1)
        np.add.at(jump_in_step, idx, sizes)
    shocks = rng.standard_normal(n)
    sqrt_d = math.sqrt(delta)
    a0, a1 = model.drift_intercept, model.drift_slope
    b0, b1 = model.diffusion_const, model.diffusion_quad
    x = np.empty(n + 1)
    y = np.empty(n + 1)
    x[0] = model.x0
    y[0] = model.y0
    xi = model.x0
    yi = model.y0
    guarded = 0
    with np.errstate(all="ignore"):
        for i in range(n):
            s2 = b0 + b1 * xi * xi
            guarded += not s2 > 0.0
            sig = math.sqrt(s2) if s2 > 0.0 else 0.0
            yi += xi * delta
            xi += (a0 + a1 * xi) * delta + sig * sqrt_d * shocks[i] + jump_in_step[i]
            x[i + 1] = xi
            y[i + 1] = yi
    return x, y, times, sizes, guarded


_ORACLE_CASES = {
    "baseline": baseline_model(),
    "no_jumps": replace(baseline_model(), jump_total=0.0),
    # a positive rate whose Poisson draw is 0 at every seed below
    "rare_jumps": replace(baseline_model(), jump_total=0.05),
    # sigma^2(x) = 0.1 - 10 x^2 is negative from x0 = 0.5: the guard steps
    # without diffusion until the drift pulls x inside |x| < 0.1
    "negative_quad": replace(baseline_model(), diffusion_quad=-10.0, x0=0.5),
    "integer_start": replace(baseline_model(), x0=1, y0=100),
    # explodes past the double range, through inf to NaN
    "divergent": replace(baseline_model(), drift_slope=-2000.0, jump_total=0.0),
}


@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_stepper_matches_indexed_loop_bit_for_bit(case, seed):
    model = _ORACLE_CASES[case]
    T, n = 10.0, 500
    x, y, times, sizes, guarded = _indexed_euler(model, T, n, seed)
    path = simulate_path(model, T, n, seed)
    assert path.x.dtype == path.y.dtype == np.float64
    assert np.array_equal(path.x, x, equal_nan=True)
    assert np.array_equal(path.y, y, equal_nan=True)
    assert np.array_equal(path.jump_times, times)
    assert np.array_equal(path.jump_sizes, sizes)
    if case == "negative_quad":
        assert guarded > 0
    if case in ("no_jumps", "rare_jumps"):
        assert times.size == 0
    if case == "divergent":
        assert np.isnan(x[-1]) and np.isfinite(x[1])


def test_degenerate_path_by_hand():
    path = simulate_path(_constant_drift_model(), T=3.0, n=3, seed=0)
    np.testing.assert_allclose(path.x, [0.0, 1.0, 2.0, 3.0])
    # y cumulates the lagged state: y_i = y_{i-1} + x_{i-1} * delta
    np.testing.assert_allclose(path.y, [5.0, 5.0, 6.0, 8.0])
    assert path.delta == 1.0
    assert path.jump_times.size == 0
    np.testing.assert_allclose(path.t, [0.0, 1.0, 2.0, 3.0])


def test_same_seed_bitwise_identical():
    model = baseline_model()
    a = simulate_path(model, T=10.0, n=500, seed=42)
    b = simulate_path(model, T=10.0, n=500, seed=42)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.jump_times, b.jump_times)
    assert np.array_equal(a.jump_sizes, b.jump_sizes)
    c = simulate_path(model, T=10.0, n=500, seed=43)
    assert not np.array_equal(a.x, c.x)


def test_baseline_path_keeps_its_recorded_values():
    """A long baseline path (T = 50, n = 5000, seed 11, 14 jumps) equals,
    byte for byte, the path recorded when Y was added up inside the Euler
    loop, so a change in how X or Y is accumulated shows here."""
    path = simulate_path(baseline_model(), T=50.0, n=5000, seed=11)
    assert path.jump_times.size == 14
    assert [v.hex() for v in (path.x[1], path.x[-1], path.y[1], path.y[-1])] == [
        "0x1.0732e2ffd8aa1p-3",
        "0x1.39696c633af61p-3",
        "0x1.90010624dd2f2p+6",
        "0x1.a482abc5dc38dp+6",
    ]
    digest = [hashlib.sha256(a.astype("<f8").tobytes()).hexdigest() for a in (path.x, path.y)]
    assert digest == [
        "d80808d4b2a1356ea09a6e464ac24a1d25e9fffea0bee6e006be32cb377b1a29",
        "42b11257f0fff996c909c5f5410bb5e549c5af875fad3913b638e911091ac421",
    ]


def test_replicate_seed_distinct_and_stable():
    seeds = [replicate_seed(7, r) for r in range(100)]
    assert len(set(seeds)) == 100
    assert seeds[:3] == [replicate_seed(7, r) for r in range(3)]
    assert replicate_seed(8, 0) != replicate_seed(7, 0)


def test_jump_bookkeeping():
    model = replace(baseline_model(), jump_total=50.0, jump_size_std=0.1)
    path = simulate_path(model, T=10.0, n=1000, seed=3)
    assert path.jump_times.size == path.jump_sizes.size
    assert np.all(path.jump_times >= 0.0) and np.all(path.jump_times < 10.0)
    assert np.all(np.diff(path.jump_times) >= 0.0)
    # Poisson(50) draw: generous sanity interval
    assert 10 <= path.jump_times.size <= 120

    quiet_model = replace(baseline_model(), jump_total=0.0)
    quiet = simulate_path(quiet_model, T=10.0, n=100, seed=3)
    assert quiet.jump_times.size == 0


def test_state_recursion_identity():
    # reconstruct each Euler increment's pieces and verify that the
    # integrated series satisfies the linear-drift closed form
    #   y_i - y0 = (x_i - x0 - a0 t_i - W_i - J_i) / a1
    # where W_i and J_i cumulate the simulated diffusion and jump terms
    model = baseline_model()
    T, n = 10.0, 400
    path = simulate_path(model, T, n, seed=11)
    d = path.delta
    jumps = np.zeros(n)
    idx = np.minimum((path.jump_times / d).astype(int), n - 1)
    np.add.at(jumps, idx, path.jump_sizes)
    drift = model.mu(path.x[:-1]) * d
    diffusion = np.diff(path.x) - drift - jumps
    w_cum = np.concatenate([[0.0], np.cumsum(diffusion)])
    j_cum = np.concatenate([[0.0], np.cumsum(jumps)])
    t = path.t
    rhs = model.y0 + (path.x - model.x0 - model.drift_intercept * t - w_cum - j_cum) / (
        model.drift_slope
    )
    np.testing.assert_allclose(path.y, rhs, atol=1e-10)


def test_proxy_error_shrinks_with_delta():
    # simulate once on a fine grid, then observe every k-th point for a
    # range of k: the proxy built from the integrated series differs from
    # the lagged state by a genuine integration error that must shrink as
    # the observation spacing shrinks (same underlying path throughout)
    model = baseline_model()
    T = 10.0
    fine = simulate_path(model, T, 20000, seed=99)
    errs = []
    for step, delta in ((20, 0.01), (10, 0.005), (2, 0.001)):
        path = fine.thin(step)
        assert path.delta == pytest.approx(delta)
        proxy = np.diff(path.y) / path.delta
        errs.append(np.mean(np.abs(proxy - path.x[:-1])))
    assert errs[0] > errs[1] > errs[2]


def test_thin_requires_divisible_step():
    path = simulate_path(baseline_model(), T=1.0, n=10, seed=0)
    with pytest.raises(ValueError):
        path.thin(3)
    thinned = path.thin(5)
    assert thinned.x.size == 3
    np.testing.assert_allclose(thinned.x, path.x[::5])


def test_true_moments_baseline():
    model = replace(baseline_model(), jump_total=20.0, jump_size_std=0.036)
    tm = true_moments(model, 0.2, T=10.0)
    assert tm[Target.DRIFT] == pytest.approx(-1.0)
    # per-unit jump rate 2.0 at T=10
    m = 0.1 + 0.1 * 0.04 + 2.0 * 0.036**2
    assert tm[Target.COND_VARIANCE] == pytest.approx(m)
    assert tm[Target.FOURTH_MOMENT] == pytest.approx(3.0 * 2.0 * 0.036**4)
    # same expected jump count spread over a longer horizon thins the rate
    tm50 = true_moments(model, 0.2, T=50.0)
    m50 = 0.1 + 0.1 * 0.04 + 0.4 * 0.036**2
    assert tm50[Target.COND_VARIANCE] == pytest.approx(m50)


def test_true_moments_with_a_jump_mean():
    """Every target's truth at mu_z != 0, from the raw moments of
    N(mu_z, sigma_z^2) in closed form, and those moments against
    Gauss-Hermite quadrature, exact for these degrees."""
    mz, sz, x, T = 0.02, 0.01, 0.15, 10.0
    model = replace(baseline_model(), jump_total=30.0, jump_size_mean=mz,
                    jump_size_std=sz)
    lam = 3.0
    ez = {
        1: mz,
        2: mz**2 + sz**2,
        4: mz**4 + 6 * mz**2 * sz**2 + 3 * sz**4,
        6: mz**6 + 15 * mz**4 * sz**2 + 45 * mz**2 * sz**4 + 15 * sz**6,
    }
    nodes, weights = np.polynomial.hermite_e.hermegauss(8)
    for k, moment in ez.items():
        quad = weights @ (mz + sz * nodes) ** k / math.sqrt(2 * math.pi)
        assert quad == pytest.approx(moment, rel=1e-12)
    tm = true_moments(model, x, T)
    want = {
        Target.DRIFT: 1.0 - 10.0 * x + lam * ez[1],
        Target.COND_VARIANCE: 0.1 + 0.1 * x * x + lam * ez[2],
        Target.FOURTH_MOMENT: lam * ez[4],
        Target.SIXTH_MOMENT: lam * ez[6],
    }
    assert list(tm) == list(Target)
    for target, value in want.items():
        assert tm[target] == pytest.approx(value, rel=1e-13), target


@pytest.mark.parametrize("x", [0.0, 0.1, 0.3])
def test_truth_table_feeds_the_jump_split(x):
    """On a mean-zero model the table's (M, lambda E[Z^4], lambda E[Z^6])
    at x are the moments ``identify_jump_components`` inverts: it returns
    the model's sigma^2(x), lambda and sigma_z^2."""
    model, T = baseline_model(), 10.0
    tm = true_moments(model, x, T)
    split = identify_jump_components(
        tm[Target.COND_VARIANCE], tm[Target.FOURTH_MOMENT], tm[Target.SIXTH_MOMENT]
    )
    want = (float(model.sigma2(x)), model.jump_total / T, model.jump_size_std**2)
    np.testing.assert_allclose(
        (split.sigma2, split.lam, split.sigma_z2), want, rtol=1e-12, atol=0
    )
    assert split.flags == ()


def test_model_rejects_a_bool_coefficient():
    # True is an int to isinstance and would pass as a jump intensity of 1
    with pytest.raises(ValueError, match="jump_total"):
        replace(baseline_model(), jump_total=True)


def test_model_validation():
    with pytest.raises(ValueError):
        replace(baseline_model(), jump_total=-1.0)
    with pytest.raises(ValueError):
        simulate_path(baseline_model(), T=0.0, n=10, seed=0)
    with pytest.raises(ValueError):
        simulate_path(baseline_model(), T=1.0, n=0, seed=0)
