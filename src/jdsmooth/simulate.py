"""Euler simulation of a second-order jump-diffusion.

The latent state follows

    dX_t = (a0 + a1 X_t) dt + sqrt(b0 + b1 X_t^2) dW_t + dJ_t,

with J a compound Poisson process whose sizes are Normal(mu_z, sigma_z^2),
and the observable series integrates the state: dY_t = X_t dt.  Jumps are
parameterized by their expected count over the simulated horizon, so the
per-unit-time intensity is jump_total / T for whatever T a path or a
moment query refers to.

The Euler scheme draws the jump times and sizes first, bins them into
observation intervals (several jumps in one interval simply add up), and
then advances

    X_{t_i} = X_{t_{i-1}} + mu(X_{t_{i-1}}) d + sigma(X_{t_{i-1}}) sqrt(d) V_i + sum of jumps,
    Y_{t_i} = Y_{t_{i-1}} + X_{t_{i-1}} d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    NONNEGATIVE, POSITIVE, at_least, check_fields, checked, checked_field,
)
from .proxy import Target


@dataclass(frozen=True, slots=True)
class ModelSpec:
    """Coefficients of the simulated jump-diffusion."""

    drift_intercept: float = checked_field()
    drift_slope: float = checked_field()
    diffusion_const: float = checked_field(NONNEGATIVE)
    diffusion_quad: float = checked_field()
    jump_total: float = checked_field(NONNEGATIVE)
    jump_size_std: float = checked_field(NONNEGATIVE)
    jump_size_mean: float = checked_field(default=0.0)
    x0: float = checked_field(default=0.1)
    y0: float = checked_field(default=100.0)

    def __post_init__(self):
        check_fields(self)

    def mu(self, x):
        return self.drift_intercept + self.drift_slope * np.asarray(x, dtype=float)

    def sigma2(self, x):
        xx = np.asarray(x, dtype=float)
        return self.diffusion_const + self.diffusion_quad * xx * xx


def baseline_model() -> ModelSpec:
    """Mean-reverting benchmark: mu(x) = 1 - 10x, sigma^2(x) = 0.1 + 0.1 x^2,
    20 expected jumps of size Normal(0, 0.036^2).  Vary any field with
    ``dataclasses.replace(baseline_model(), ...)``."""
    return ModelSpec(
        drift_intercept=1.0,
        drift_slope=-10.0,
        diffusion_const=0.1,
        diffusion_quad=0.1,
        jump_total=20.0,
        jump_size_std=0.036,
    )


def true_moments(model: ModelSpec, x: float, T: float) -> dict[Target, float]:
    """Each target's infinitesimal moment at x, the truth its estimate is
    scored against:

        DRIFT          mu(x) + lambda E[Z]
        COND_VARIANCE  sigma^2(x) + lambda E[Z^2]
        FOURTH_MOMENT  lambda E[Z^4]
        SIXTH_MOMENT   lambda E[Z^6]

    E[Z^k] are the raw moments of the jump size Z ~ N(mu_z, sigma_z^2) and
    lambda = jump_total / T the per-unit intensity, so the horizon the jump
    budget is spread over must be supplied.
    """
    T = checked("horizon T", T, POSITIVE)
    lam = model.jump_total / T
    mz, sz = model.jump_size_mean, model.jump_size_std
    ez2 = mz * mz + sz * sz
    ez4 = mz**4 + 6.0 * mz * mz * sz * sz + 3.0 * sz**4
    ez6 = mz**6 + 15.0 * mz**4 * sz * sz + 45.0 * mz * mz * sz**4 + 15.0 * sz**6
    return {
        Target.DRIFT: float(model.mu(x)) + lam * mz,
        Target.COND_VARIANCE: float(model.sigma2(x)) + lam * ez2,
        Target.FOURTH_MOMENT: lam * ez4,
        Target.SIXTH_MOMENT: lam * ez6,
    }


@dataclass(frozen=True)
class SamplePath:
    """One simulated path: state x, integrated series y, jump record."""

    delta: float
    x: np.ndarray
    y: np.ndarray
    jump_times: np.ndarray
    jump_sizes: np.ndarray
    seed: int

    @property
    def t(self) -> np.ndarray:
        return np.arange(self.x.size) * self.delta

    @property
    def n_steps(self) -> int:
        return int(self.x.size) - 1

    def thin(self, step: int) -> "SamplePath":
        """Keep every step-th observation; the jump record is unchanged.

        Thinning a finely simulated path gives observation-grid data whose
        integrated series carries genuine integration error, which is how
        the proxy behaves on real data.
        """
        step = checked("step", step, at_least(1), integer=True)
        if self.n_steps % step != 0:
            raise ValueError(
                f"step {step} does not divide the path length {self.n_steps}"
            )
        return SamplePath(
            delta=self.delta * step,
            x=self.x[::step].copy(),
            y=self.y[::step].copy(),
            jump_times=self.jump_times,
            jump_sizes=self.jump_sizes,
            seed=self.seed,
        )


def replicate_seed(base_seed: int, index: int) -> int:
    """Deterministic per-replicate seed derived from (base_seed, index).

    Uses the splittable seed-sequence hash, so replicate streams are
    independent and reproducible no matter how work is scheduled.
    """
    base_seed = checked("base_seed", base_seed, at_least(0), integer=True)
    index = checked("replicate index", index, at_least(0), integer=True)
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(index,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def simulate_path(model: ModelSpec, T: float, n: int, seed: int) -> SamplePath:
    """Simulate n Euler steps over [0, T] from X_0 = x0, Y_0 = y0."""
    T = checked("horizon T", T, POSITIVE)
    n = checked("n", n, at_least(1), integer=True)
    seed = checked("seed", seed, at_least(0), integer=True)
    delta = T / n
    rng = np.random.default_rng(seed)

    # a Poisson draw at rate 0 and draws of size 0 take no random numbers,
    # so a path without jumps has the same stream as if they were skipped
    count = int(rng.poisson(model.jump_total))
    times = rng.uniform(0.0, T, count)
    sizes = rng.normal(model.jump_size_mean, model.jump_size_std, count)
    order = np.argsort(times, kind="stable")
    times, sizes = times[order], sizes[order]

    jump_in_step = np.zeros(n)
    idx = np.minimum((times / delta).astype(np.int64), n - 1)
    np.add.at(jump_in_step, idx, sizes)

    shocks = rng.standard_normal(n)
    sqrt_d = math.sqrt(delta)
    a0, a1 = model.drift_intercept, model.drift_slope
    b0, b1 = model.diffusion_const, model.diffusion_quad

    # Python floats step faster than numpy scalars and round the same
    xi = model.x0
    x = [xi]
    for shock, jump in zip(shocks.tolist(), jump_in_step.tolist()):
        s2 = b0 + b1 * xi * xi
        sig = math.sqrt(s2) if s2 > 0.0 else 0.0
        xi += (a0 + a1 * xi) * delta + sig * sqrt_d * shock + jump
        x.append(xi)
    x = np.array(x, dtype=float)
    # Y_i = Y_{i-1} + X_{i-1} delta, added in order as the loop would
    y = np.add.accumulate(np.concatenate([[model.y0], x[:-1] * delta]))

    return SamplePath(
        delta=delta,
        x=x,
        y=y,
        jump_times=times,
        jump_sizes=sizes,
        seed=seed,
    )
