"""Proxy construction and regression-triple indexing tests.

Expected arrays are written out by hand from the definitions: the proxy is
the lag-1 difference quotient of the observed series, and each regression
triple staggers the kernel point one step behind the design point with the
response built from the following increment.
"""

import math

import numpy as np
import pytest

from jdsmooth.errors import DataError
from jdsmooth.locallinear import Target
from jdsmooth.proxy import (
    ProxySeries,
    RegressionTriples,
    build_log_proxy,
    build_proxy,
    build_regression_triples,
)


def test_build_proxy_difference_quotient():
    p = build_proxy([0.0, 1.0, 3.0], 1.0)
    np.testing.assert_allclose(p.values, [1.0, 2.0])
    assert p.delta == 1.0

    p = build_proxy([0.0, 0.5], 0.5)
    np.testing.assert_allclose(p.values, [1.0])


def test_build_proxy_rejects_bad_input():
    with pytest.raises(DataError):
        build_proxy([1.0], 1.0)
    with pytest.raises(DataError):
        build_proxy([0.0, np.nan, 1.0], 1.0)
    with pytest.raises(ValueError):
        build_proxy([0.0, 1.0], 0.0)


def test_build_log_proxy():
    prices = [1.0, math.e, math.e**2]
    p = build_log_proxy(prices, 1.0)
    np.testing.assert_allclose(p.values, [1.0, 1.0], rtol=1e-15)


def test_build_log_proxy_names_offending_row():
    with pytest.raises(DataError, match="row 3"):
        build_log_proxy([1.0, 2.0, -3.0, 4.0], 1.0)
    with pytest.raises(DataError, match="row 1"):
        build_log_proxy([0.0, 2.0, 3.0], 1.0)


def test_regression_triples_staggering():
    v = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    delta = 0.5
    t = build_regression_triples(ProxySeries(delta=delta, values=v))
    assert len(t.weight_points) == len(v) - 2
    np.testing.assert_allclose(t.weight_points, [1.0, 2.0, 4.0])
    np.testing.assert_allclose(t.design_points, [2.0, 4.0, 8.0])
    diffs = np.array([2.0, 4.0, 8.0])
    np.testing.assert_allclose(t.response(Target.DRIFT), diffs / delta)
    np.testing.assert_allclose(t.response(Target.COND_VARIANCE), 1.5 * diffs**2 / delta)
    # the k-th power of an increment is scaled by (k + 1) / 2
    np.testing.assert_allclose(t.response(Target.FOURTH_MOMENT), 2.5 * diffs**4 / delta)
    np.testing.assert_allclose(t.response(Target.SIXTH_MOMENT), 3.5 * diffs**6 / delta)


def test_regression_triples_are_read_only_copies():
    drift = np.array([1.0, 2.0])
    t = RegressionTriples(
        weight_points=np.array([0.5, 1.5]),
        design_points=np.array([1.0, 2.0]),
        drift=drift,
        cond_var=drift**2,
        moment4=drift**4,
        moment6=drift**6,
    )
    with pytest.raises(ValueError):
        t.drift[0] = 0.0
    drift[0] = 5.0
    assert t.drift[0] == 1.0


def test_regression_triples_need_three_values():
    with pytest.raises(ValueError):
        build_regression_triples(ProxySeries(delta=1.0, values=np.array([1.0, 2.0])))
    t = build_regression_triples(
        ProxySeries(delta=1.0, values=np.array([1.0, 2.0, 3.0]))
    )
    assert len(t.design_points) == 1


def test_proxy_series_validation():
    with pytest.raises(ValueError):
        ProxySeries(delta=-1.0, values=np.array([1.0]))
    with pytest.raises(DataError):
        ProxySeries(delta=1.0, values=np.array([np.inf]))
