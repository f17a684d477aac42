"""The one pool policy of fdnet: `ordered_map(fn, items, workers=None,
shared=())` returns `[fn(*shared, *item) for item in items]`.  Three
users run through it: the fold fits of `training.select`, the replicates
of `evaluation.benchmark` and the CSV row blocks of the `dataio` writers.

`workers` defaults to `usable_cpus()`, so `taskset` limits it.  More than
one worker and more than one item map over a `ProcessPoolExecutor` of
min(workers, len(items)) processes, started by fork where the platform has
it.  `shared` reaches each worker once, through the pool's initializer
(inherited under fork, not pickled); only items and results cross between
processes.  Results come back in item order, the first failing item in
that order raises its exception whichever finished first, and a worker
that dies (killed, say, for lack of memory) raises FdnetError instead of
the pool's BrokenProcessPool.

Pools never nest: a map called while this process runs another map's
items, in a pool worker or on the serial path, runs in this process, so a
replicate's `select` fits its cells serially.  No result depends on the
number of workers.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from .errors import FdnetError, as_count

# (fn, shared) of the map whose items this process is running, else None
_task = None


def usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask, which `taskset`
    sets), or the CPU count where the platform has no affinity."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _init_worker(fn, shared) -> None:
    global _task
    _task = (fn, shared)


def _call(item):
    fn, shared = _task
    return fn(*shared, *item)


def ordered_map(fn, items, workers: int | None = None, shared: tuple = ()) -> list:
    """[fn(*shared, *item) for item in items], on a pool when more than one
    worker, more than one item and no running map here allow it."""
    global _task
    workers = usable_cpus() if workers is None else as_count(workers, "workers")
    items = list(items)
    workers = min(workers, len(items))
    if workers <= 1 or _task is not None:
        outer, _task = _task, (fn, shared)
        try:
            return [_call(item) for item in items]
        finally:
            _task = outer
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork") if "fork" in methods else None
    try:
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=context, initializer=_init_worker, initargs=(fn, shared)
        ) as pool:
            return list(pool.map(_call, items))
    except BrokenProcessPool:
        raise FdnetError(
            f"a worker process of a {workers}-process pool ended abruptly "
            "(killed, for example for lack of memory)"
        ) from None
