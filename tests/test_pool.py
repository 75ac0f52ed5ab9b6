"""Process pool tests.

``pool.map_in_order`` must give what a plain list comprehension gives,
in task order, leave no worker process behind, and run inline where a
fork is unsafe.  Block cross-validation scores slices of its (candidate,
fold) pairs through it, so its objectives, failure count and choice must
be ``==`` for every worker count, also where a slice splits a candidate;
the serial run (one usable CPU) is the oracle, and
``tests/test_bandwidth.py`` pins that run to brute-force refits.
"""

import multiprocessing
import os
import threading

import numpy as np
import pytest

from jdsmooth import bandwidth, pool
from jdsmooth.bandwidth import block_cv
from jdsmooth.kernels import KernelFamily
from jdsmooth.proxy import ProxySeries


def _pid(_task):
    return os.getpid()


def _square_or_fail(t):
    if t == 3:
        raise ZeroDivisionError(f"task {t} cannot be scored")
    return t * t


def _inner_pids(_task):
    return os.getpid(), pool.map_in_order(_pid, range(3))


def _series():
    # dips below zero, so Gamma folds at x < 0 fail; the smallest bandwidth
    # leaves folds of both families without kernel mass
    rng = np.random.default_rng(31)
    return ProxySeries(delta=0.1, values=0.5 * rng.standard_normal(120) + 0.6)


_H_GRID = np.array([0.002, 0.05, 0.12, 0.3, 0.7, 1.5])


def _cpus(monkeypatch, count):
    monkeypatch.setattr(pool, "usable_cpus", lambda: count)


def test_usable_cpus_is_a_positive_count():
    assert 1 <= pool.usable_cpus() <= (os.cpu_count() or 1)


@pytest.mark.parametrize("family", [KernelFamily.GAMMA, KernelFamily.GAUSSIAN])
def test_block_cv_is_identical_for_any_cpu_count(monkeypatch, family):
    p = _series()
    # the full grid; one candidate, which every slice splits; three
    # candidates, which two slices split in the middle one
    for h_grid in (_H_GRID, _H_GRID[:1], _H_GRID[:3]):
        _cpus(monkeypatch, 1)
        serial = block_cv(p, h_grid=h_grid, k=2, family=family)
        assert serial.failures > 0
        for cpus in (2, 3, _H_GRID.size + 5):
            _cpus(monkeypatch, cpus)
            got = block_cv(p, h_grid=h_grid, k=2, family=family)
            assert multiprocessing.active_children() == []
            assert list(got.objectives) == list(serial.objectives), cpus
            assert got.failures == serial.failures
            assert got.h == serial.h
            assert got.k == serial.k
            assert list(got.candidates) == list(serial.candidates)


def test_block_cv_cuts_one_candidate_into_a_slice_per_cpu(monkeypatch):
    p = _series()
    _cpus(monkeypatch, 2)
    sent = []
    map_in_order = pool.map_in_order

    def recording(fn, tasks):
        sent.append(list(tasks))
        return map_in_order(fn, sent[-1])

    monkeypatch.setattr(pool, "map_in_order", recording)
    block_cv(p, h_grid=_H_GRID[:1], k=2)
    folds = len(p) - 2 * 2
    assert sent == [[(0, folds // 2), (folds // 2, folds)]]


def test_map_in_order_uses_workers_and_keeps_task_order(monkeypatch):
    _cpus(monkeypatch, 2)
    assert pool.map_in_order(_square_or_fail, [5, 1, 4, 2]) == [25, 1, 16, 4]
    pids = pool.map_in_order(_pid, range(4))
    assert multiprocessing.active_children() == []
    assert os.getpid() not in pids


def test_map_in_order_runs_one_task_inline(monkeypatch):
    _cpus(monkeypatch, 4)
    assert pool.map_in_order(_pid, [0]) == [os.getpid()]
    assert pool.map_in_order(_pid, []) == []


def test_map_in_order_runs_inline_inside_a_worker(monkeypatch):
    _cpus(monkeypatch, 2)
    for outer, inner in pool.map_in_order(_inner_pids, range(2)):
        assert outer != os.getpid()
        assert inner == [outer] * 3
    assert multiprocessing.active_children() == []


def test_block_cv_on_a_thread_runs_inline(monkeypatch):
    """With another thread alive a fork could copy a held lock, so the
    slices of (candidate, fold) pairs are scored in this process and the
    result is unchanged."""
    p = _series()
    _cpus(monkeypatch, 1)
    serial = block_cv(p, h_grid=_H_GRID, k=2)
    _cpus(monkeypatch, 2)
    scored_in = []
    score = bandwidth._score_candidates

    def recording(job, hs):
        scored_in.append(os.getpid())
        return score(job, hs)

    monkeypatch.setattr(bandwidth, "_score_candidates", recording)
    result = {}
    thread = threading.Thread(
        target=lambda: result.update(choice=block_cv(p, h_grid=_H_GRID, k=2))
    )
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    got = result["choice"]
    assert scored_in == [os.getpid(), os.getpid()]
    assert list(got.objectives) == list(serial.objectives)
    assert (got.h, got.k, got.failures) == (serial.h, serial.k, serial.failures)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus", [1, 2])
def test_task_exception_reaches_the_caller(monkeypatch, cpus):
    _cpus(monkeypatch, cpus)
    with pytest.raises(ZeroDivisionError, match="^task 3 cannot be scored$"):
        pool.map_in_order(_square_or_fail, [1, 2, 3, 4])
    assert multiprocessing.active_children() == []
