"""One ordered map over a process pool: the fold fits of `training.select`
and the replicates of `evaluation.benchmark` both run through it.

`ordered_map(fn, items, workers, shared)` returns
`[fn(*shared, *item) for item in items]`.  With more than one worker and
more than one item it maps over a `ProcessPoolExecutor` of
min(workers, len(items)) processes, started with the fork method where the
platform has it.  `shared` reaches each worker once, through the pool's
initializer (under fork it is inherited, not pickled); only the items and
the results cross between processes.  Results come back in item order, and
an exception surfaces as the one of the first failing item in that order,
whichever finished first.  A worker that dies (killed, for example, for
lack of memory) raises FdnetError instead of the pool's BrokenProcessPool.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from .errors import FdnetError

# (fn, shared) of this worker process, set once by the pool's initializer
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


def ordered_map(fn, items, workers: int, shared: tuple = ()) -> list:
    """[fn(*shared, *item) for item in items], on min(workers, len(items))
    processes when that is more than one, else in this process."""
    items = list(items)
    workers = min(workers, len(items))
    if workers <= 1:
        return [fn(*shared, *item) for item in items]
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
