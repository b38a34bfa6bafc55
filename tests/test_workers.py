import time

import pytest

from pathovc import workers


@pytest.fixture
def pools(monkeypatch):
    """The worker count of each pool ``ordered_map`` starts."""
    sizes = []

    class Pool(workers.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(workers, "ThreadPoolExecutor", Pool)
    return sizes


def cpus(monkeypatch, n):
    monkeypatch.setattr(workers.os, "sched_getaffinity",
                        lambda pid: set(range(n)))


class TestOrderedMap:
    def test_results_in_input_order(self, monkeypatch, pools):
        # later items finish first
        cpus(monkeypatch, 3)
        delays = [0.06, 0.04, 0.02, 0.0, 0.01]
        assert workers.ordered_map(
            lambda d: (time.sleep(d), d)[1], delays) == delays
        assert pools == [3]

    @pytest.mark.parametrize("n_cpus,n_items,size", [(1, 5, 1), (2, 5, 2),
                                                    (8, 3, 3)])
    def test_pool_size_is_cpus_capped_by_items(self, monkeypatch, pools,
                                               n_cpus, n_items, size):
        cpus(monkeypatch, n_cpus)
        assert workers.ordered_map(str, range(n_items)) == [
            str(i) for i in range(n_items)]
        assert pools == [size]

    def test_cpu_count_without_affinity_call(self, monkeypatch):
        monkeypatch.delattr(workers.os, "sched_getaffinity")
        monkeypatch.setattr(workers.os, "cpu_count", lambda: 4)
        assert workers.cpu_count() == 4
        monkeypatch.setattr(workers.os, "cpu_count", lambda: None)
        assert workers.cpu_count() == 1

    def test_no_items_starts_no_pool(self, pools):
        assert workers.ordered_map(str, []) == []
        assert pools == []

    def test_unhandled_error_cancels_queued_items(self, monkeypatch):
        cpus(monkeypatch, 2)
        started = []

        def fn(i):
            started.append(i)
            if i == 0:
                raise RuntimeError("bug")
            time.sleep(0.1)  # leaves the queue to the calling thread

        with pytest.raises(RuntimeError, match="bug"):
            workers.ordered_map(fn, range(20))
        # item 0, the one running beside it, and at most one the failed
        # worker took before the calling thread cancelled the queue
        assert 0 in started and len(started) <= 3
