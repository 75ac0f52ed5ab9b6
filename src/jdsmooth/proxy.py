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

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import POSITIVE, DataError, checked

# response scale factors (k + 1) / 2 for the powers k = 2, 4, 6 of a proxy
# increment.  A jump Z at a uniform position in either interval behind
# Xt_{i+1} - Xt_i moves it by Z U with U ~ Uniform(0, 1), so its k-th moment
# is 2 lambda delta E[Z^k] / (k + 1) to first order (for k = 2 the Brownian
# part is damped by the same 2/3)
_PROXY_FACTORS = (1.5, 2.5, 3.5)


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


@dataclass(frozen=True)
class ProxySeries:
    """Proxy values for the latent state at sampling interval delta."""

    delta: float
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "delta", checked("delta", self.delta, POSITIVE))
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
    n - 2 triples.  The arrays are read-only copies of those passed in.
    """

    weight_points: np.ndarray
    design_points: np.ndarray
    drift: np.ndarray
    cond_var: np.ndarray
    moment4: np.ndarray
    moment6: np.ndarray

    # the proxy index of the first design point, which leave-out schemes
    # use to map observation indices to triple indices
    source_offset = 2

    def __post_init__(self):
        names = (
            "weight_points", "design_points", "drift", "cond_var", "moment4", "moment6"
        )
        for name in names:
            arr = np.array(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        n = self.weight_points.size
        if any(getattr(self, name).size != n for name in names):
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


def build_proxy(y, delta: float) -> ProxySeries:
    """Difference-quotient proxy (Y_i - Y_{i-1}) / delta of an observed series."""
    delta = checked("delta", delta, POSITIVE)
    arr = _as_clean_array(y, "observed series")
    if arr.size < 2:
        raise DataError("need at least two observations to build a proxy")
    return ProxySeries(delta=delta, values=np.diff(arr) / delta)


def build_log_proxy(prices, delta: float) -> ProxySeries:
    """Proxy from price levels: (log Y_i - log Y_{i-1}) / delta."""
    delta = checked("delta", delta, POSITIVE)
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


def build_regression_triples(p: ProxySeries) -> RegressionTriples:
    """Staggered triples (Xt_{i-1}, Xt_i, Xt_{i+1} - Xt_i) from a proxy series."""
    v = p.values
    if v.size < 3:
        raise ValueError("need at least three proxy values to form triples")
    f2, f4, f6 = _PROXY_FACTORS
    diffs = v[2:] - v[1:-1]
    sq = diffs * diffs
    return RegressionTriples(
        weight_points=v[:-2],
        design_points=v[1:-1],
        drift=diffs / p.delta,
        cond_var=f2 * sq / p.delta,
        moment4=f4 * sq * sq / p.delta,
        moment6=f6 * sq * sq * sq / p.delta,
    )
