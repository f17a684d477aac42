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


def die(x):
    os._exit(1)


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

    def test_dead_worker_is_an_fdnet_error(self):
        with pytest.raises(FdnetError, match="ended abruptly") as info:
            ordered_map(die, [(1,), (2,)], 2)
        assert type(info.value) is FdnetError  # not the pool's RuntimeError

    def test_usable_cpus(self):
        assert usable_cpus() >= 1
        if hasattr(os, "sched_getaffinity"):
            assert usable_cpus() == len(os.sched_getaffinity(0))
