"""Difference-quotient proxies and staggered regression triples.

The latent state is observed only through the integrated series Y, so the
working sample is the proxy

    Xt_i = (Y_i - Y_{i-1}) / delta,

or its log variant for price data.  Conditional-moment regressions then
pair a kernel weight evaluated at the lagged proxy Xt_{i-1} with a design
point Xt_i and a response built from the following increment
Xt_{i+1} - Xt_i.  The lag keeps the weight measurable with respect to the
past, which is what makes the drift and moment regressions unbiased to
first order; the factors (k + 1) / 2, i.e. 3/2, 5/2 and 7/2 for the
second, fourth and sixth powers, undo the smoothing the integration
applies to the k-th power of an increment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DataError

# response scale factors (k + 1) / 2 for the powers k = 2, 4, 6 of a proxy
# increment.  A jump Z at a uniform position in either interval behind
# Xt_{i+1} - Xt_i moves it by Z U with U ~ Uniform(0, 1), so its k-th moment
# is 2 lambda delta E[Z^k] / (k + 1) to first order (for k = 2 the Brownian
# part is damped by the same 2/3)
_PROXY_FACTORS = (1.5, 2.5, 3.5)
_DIRECT_FACTORS = (1.0, 1.0, 1.0)


class Target(Enum):
    """Regression response a local linear fit estimates."""

    DRIFT = "drift"
    COND_VARIANCE = "cond_variance"
    FOURTH_MOMENT = "moment4"
    SIXTH_MOMENT = "moment6"


def _as_clean_array(values, what: str) -> np.ndarray:
    # copy so freezing or reuse never mutates caller-owned arrays
    arr = np.array(values, dtype=float, copy=True)
    if arr.ndim != 1:
        raise ValueError(f"{what} must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        bad = int(np.flatnonzero(~np.isfinite(arr))[0]) + 1
        raise DataError(f"{what} contains a non-finite value at row {bad}")
    return arr


def _check_delta(delta: float) -> float:
    delta = float(delta)
    if not (math.isfinite(delta) and delta > 0):
        raise ValueError(f"delta must be positive and finite, got {delta!r}")
    return delta


@dataclass(frozen=True)
class ProxySeries:
    """Proxy values for the latent state at sampling interval delta."""

    delta: float
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "delta", _check_delta(self.delta))
        arr = _as_clean_array(self.values, "proxy values")
        if arr.size < 1:
            raise DataError("proxy series is empty")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class RegressionTriples:
    """Aligned arrays (weight point, design point, responses) for smoothing.

    For proxy values Xt_1..Xt_n the usable indices are i = 2..n-1, giving
    n - 2 triples.  ``source_offset`` records the proxy index of the first
    design point (used by leave-out schemes to map observation indices to
    triple indices).
    """

    delta: float
    weight_points: np.ndarray
    design_points: np.ndarray
    drift: np.ndarray
    cond_var: np.ndarray
    moment4: np.ndarray
    moment6: np.ndarray
    source_offset: int = 2

    def __post_init__(self):
        n = self.weight_points.size
        arrays = (
            self.design_points,
            self.drift,
            self.cond_var,
            self.moment4,
            self.moment6,
        )
        if any(a.size != n for a in arrays):
            raise ValueError("triple arrays must have equal length")
        if n < 1:
            raise ValueError("need at least one regression triple")

    def __len__(self) -> int:
        return int(self.weight_points.size)

    def response(self, target: Target) -> np.ndarray:
        try:
            return {
                Target.DRIFT: self.drift,
                Target.COND_VARIANCE: self.cond_var,
                Target.FOURTH_MOMENT: self.moment4,
                Target.SIXTH_MOMENT: self.moment6,
            }[target]
        except KeyError:
            raise ValueError(f"unknown regression target {target!r}") from None

    def subset(self, mask: np.ndarray) -> "RegressionTriples":
        return RegressionTriples(
            delta=self.delta,
            weight_points=self.weight_points[mask],
            design_points=self.design_points[mask],
            drift=self.drift[mask],
            cond_var=self.cond_var[mask],
            moment4=self.moment4[mask],
            moment6=self.moment6[mask],
            source_offset=self.source_offset,
        )


def build_proxy(y, delta: float) -> ProxySeries:
    """Difference-quotient proxy (Y_i - Y_{i-1}) / delta of an observed series."""
    delta = _check_delta(delta)
    arr = _as_clean_array(y, "observed series")
    if arr.size < 2:
        raise DataError("need at least two observations to build a proxy")
    return ProxySeries(delta=delta, values=np.diff(arr) / delta)


def build_log_proxy(prices, delta: float) -> ProxySeries:
    """Proxy from price levels: (log Y_i - log Y_{i-1}) / delta."""
    delta = _check_delta(delta)
    arr = _as_clean_array(prices, "price series")
    if arr.size < 2:
        raise DataError("need at least two prices to build a proxy")
    nonpos = np.flatnonzero(arr <= 0)
    if nonpos.size:
        row = int(nonpos[0]) + 1
        raise DataError(
            f"price must be positive to take logs: row {row} has {arr[nonpos[0]]!r}"
        )
    return ProxySeries(delta=delta, values=np.diff(np.log(arr)) / delta)


def _triples_from_arrays(
    weight: np.ndarray,
    design: np.ndarray,
    diffs: np.ndarray,
    delta: float,
    factors: tuple[float, float, float],
    source_offset: int,
) -> RegressionTriples:
    f2, f4, f6 = factors
    drift = diffs / delta
    sq = diffs * diffs
    return RegressionTriples(
        delta=delta,
        weight_points=weight,
        design_points=design,
        drift=drift,
        cond_var=f2 * sq / delta,
        moment4=f4 * sq * sq / delta,
        moment6=f6 * sq * sq * sq / delta,
        source_offset=source_offset,
    )


def build_regression_triples(p: ProxySeries) -> RegressionTriples:
    """Staggered triples (Xt_{i-1}, Xt_i, Xt_{i+1} - Xt_i) from a proxy series."""
    v = p.values
    if v.size < 3:
        raise ValueError("need at least three proxy values to form triples")
    return _triples_from_arrays(
        weight=v[:-2],
        design=v[1:-1],
        diffs=v[2:] - v[1:-1],
        delta=p.delta,
        factors=_PROXY_FACTORS,
        source_offset=2,
    )


def build_direct_triples(x, delta: float) -> RegressionTriples:
    """Triples from directly observed state values (simulation diagnostics).

    Weight and design point coincide at X_{i-1} and the responses are plain
    powers of the increment over delta, without the proxy correction
    factors.
    """
    delta = _check_delta(delta)
    arr = _as_clean_array(x, "state series")
    if arr.size < 2:
        raise ValueError("need at least two state values to form triples")
    return _triples_from_arrays(
        weight=arr[:-1],
        design=arr[:-1],
        diffs=np.diff(arr),
        delta=delta,
        factors=_DIRECT_FACTORS,
        source_offset=1,
    )
