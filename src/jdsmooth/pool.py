"""One deterministic process pool for independent, picklable tasks.

``map_in_order(fn, tasks)`` returns ``[fn(t) for t in tasks]``, computed
on forked worker processes when that is safe and useful and inline
otherwise.  Results come back in task order, so a caller that reduces
them in that order gets the same answer for any number of workers.
``fn`` and every task must pickle: module-level functions (or
``functools.partial`` of one) over plain data, never lambdas.

The pool lives for one call and is shut down before the call returns,
so no worker process outlives it.  ``multiprocessing`` is imported only
when a pool is started, which keeps it out of ``import jdsmooth``.
"""

from __future__ import annotations

import os
import threading


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where there is one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def map_in_order(fn, tasks) -> list:
    """``[fn(t) for t in tasks]`` on up to ``usable_cpus()`` forked workers.

    Runs inline when one worker would do, where the fork start method is
    unavailable, inside a multiprocessing child (no nested pools), and
    while other threads are alive (forking a threaded process can copy a
    lock in its held state).  An exception raised by a task reaches the
    caller with its type and message.
    """
    tasks = list(tasks)
    workers = min(len(tasks), usable_cpus())
    if workers <= 1 or threading.active_count() > 1:
        return [fn(t) for t in tasks]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    if (
        "fork" not in multiprocessing.get_all_start_methods()
        or multiprocessing.parent_process() is not None
    ):
        return [fn(t) for t in tasks]
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as ex:
        return list(ex.map(fn, tasks))
