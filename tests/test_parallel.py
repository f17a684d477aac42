import os
import time

import pytest

from fdnet import DomainError, FdnetError, NumericError
from fdnet import parallel
from fdnet.parallel import ordered_map, usable_cpus


def scaled(factor, x):
    return factor * x


def with_pid(x):
    return x, os.getpid()


def inner_pids(x, workers):
    """The pids of an inner two-item map, with this process's own."""
    return {pid for _, pid in ordered_map(with_pid, [(x,), (x + 1,)], workers)} | {os.getpid()}


def die(x):
    os._exit(1)


def started_at(x):
    start = time.monotonic()
    time.sleep(0.3)
    return start


def fail_later_items_first(x):
    if x == 1:
        time.sleep(0.5)
        raise DomainError("item 1 failed")
    if x > 1:
        raise NumericError(f"item {x} failed")
    return x


class TestOrderedMap:
    def test_results_in_item_order(self):
        items = [(x,) for x in range(7)]
        assert ordered_map(scaled, items, 1, shared=(3,)) == [3 * x for x in range(7)]
        assert ordered_map(scaled, items, 2, shared=(3,)) == [3 * x for x in range(7)]

    def test_one_worker_or_one_item_runs_here(self, monkeypatch):
        monkeypatch.setattr(parallel, "ProcessPoolExecutor", pytest.fail)
        assert ordered_map(scaled, [(2,), (5,)], 1, shared=(3,)) == [6, 15]
        assert ordered_map(scaled, [(2,)], 8, shared=(3,)) == [6]
        assert ordered_map(scaled, [], 8, shared=(3,)) == []

    def test_pool_runs_in_other_processes(self):
        results = ordered_map(with_pid, [(x,) for x in range(4)], 2)
        assert [r[0] for r in results] == [0, 1, 2, 3]
        assert os.getpid() not in {r[1] for r in results}

    def test_first_failure_in_item_order(self):
        # item 1 fails late on one worker, items 2 and 3 at once on the other
        with pytest.raises(DomainError, match="item 1 failed"):
            ordered_map(fail_later_items_first, [(x,) for x in range(4)], 2)

    def test_cost_orders_dispatch_not_results(self):
        items = [(x,) for x in range(4)]
        for workers in (1, 2):
            # the last item costs most, so a pool starts it first
            assert ordered_map(scaled, items, workers, shared=(3,), cost=lambda item: item[0]) == [0, 3, 6, 9]
            with pytest.raises(DomainError, match="item 1 failed"):
                ordered_map(fail_later_items_first, items, workers, cost=lambda item: item[0])
        starts = ordered_map(started_at, items, 2, cost=lambda item: item[0])
        assert max(starts[2:]) < min(starts[:2])  # items 3 and 2 ran first, one per worker

    def test_dead_worker_is_an_fdnet_error(self):
        with pytest.raises(FdnetError, match="ended abruptly") as info:
            ordered_map(die, [(1,), (2,)], 2)
        assert type(info.value) is FdnetError  # not the pool's RuntimeError

    def test_map_inside_a_pooled_map_runs_in_its_worker(self):
        results = ordered_map(inner_pids, [(0, 2), (1, 2)], 2)
        assert all(len(pids) == 1 for pids in results)  # one process each: no nested pool
        assert os.getpid() not in set.union(*results)

    def test_map_inside_a_serial_map_runs_here(self):
        results = ordered_map(inner_pids, [(0, 2), (1, 2)], 1)
        assert results == [{os.getpid()}, {os.getpid()}]
        assert parallel._task is None  # restored once the outer map is done

    def test_default_is_the_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
        monkeypatch.setattr(parallel, "ProcessPoolExecutor", pytest.fail)
        assert ordered_map(scaled, [(2,), (5,)], shared=(3,)) == [6, 15]
        monkeypatch.undo()
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
        results = ordered_map(with_pid, [(0,), (1,)])
        assert os.getpid() not in {r[1] for r in results}

    @pytest.mark.parametrize("workers", [0, -1, 1.0, True])
    def test_workers_must_be_a_positive_integer(self, monkeypatch, workers):
        monkeypatch.setattr(parallel, "ProcessPoolExecutor", pytest.fail)
        with pytest.raises(DomainError, match="workers must be"):
            ordered_map(pytest.fail, [(1,), (2,)], workers)

    def test_usable_cpus(self):
        assert usable_cpus() >= 1
        if hasattr(os, "sched_getaffinity"):
            assert usable_cpus() == len(os.sched_getaffinity(0))
