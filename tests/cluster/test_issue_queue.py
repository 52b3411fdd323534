"""The age-ordered issue queue, as the cycle loop drives it.

Dispatch appends (``_dispatch``), issue rebuilds the entry list without
the uops it issued (``_issue``), decode stalls on a full queue, and the
invalidation walk re-enters a reissuing uop in age order
(:meth:`~repro.cluster.IssueQueue.reinsert`).
"""

import pytest

from repro.cluster import IssueQueue
from repro.core import make_config
from repro.core.processor import Processor
from repro.core.uop import STATE_WAITING
from repro.workloads import workload_trace

from ..conftest import at_cycle_boundaries


class FakeUop:
    def __init__(self, order, min_issue_cycle=0):
        self.order = order
        self.min_issue_cycle = min_issue_cycle
        self.wake_cycle = 99
        self.iq = None

    def __repr__(self):
        return f"U{self.order}"


def orders(queue):
    return [u.order for u in queue]


def queues(processor):
    return [q for cluster in processor.clusters
            for q in (cluster.iq_int, cluster.iq_fp)]


def run_checked(check, n_clusters=4, **overrides):
    """cjpeg through a processor, *check* at every cycle boundary."""
    trace = workload_trace("cjpeg", 3_000)
    processor = Processor(make_config(n_clusters, **overrides),
                          iter(trace))
    result = at_cycle_boundaries(processor, check)
    assert result.stats.committed_insts == len(trace)
    return result


def test_dispatch_preserves_arrival_order():
    # Dispatch order is age order, and reissues (value speculation
    # here) re-enter at their age position.
    def check(processor):
        for queue in queues(processor):
            assert orders(queue) == sorted(orders(queue))
    result = run_checked(check, predictor="stride", steering="vpb")
    assert result.stats.invalidations > 0


def test_capacity_gates_new_dispatches():
    # Without value speculation nothing reissues, so no queue ever
    # holds more than its capacity, and decode stalls on a full one.
    def check(processor):
        for queue in queues(processor):
            assert len(queue) <= queue.capacity
    result = run_checked(check, n_clusters=1, iq_size=4)
    assert result.stats.decode_stalls["iq"] > 0


def test_reinsert_restores_age_position():
    queue = IssueQueue(8)
    queue._entries = [FakeUop(i) for i in (0, 1, 3, 4, 10)]
    uop = FakeUop(2, min_issue_cycle=7)
    queue.reinsert(uop)
    assert orders(queue) == [0, 1, 2, 3, 4, 10]
    assert uop.iq is queue and uop.wake_cycle == 0
    assert queue.next_try == 7


def test_reinsert_may_exceed_capacity():
    """Reissue re-entry bypasses the capacity check (§2.2: no extra
    restart penalty — the paper's selective reissue reuses the normal
    issue mechanism)."""
    queue = IssueQueue(2)
    queue._entries = [FakeUop(1), FakeUop(2)]
    queue.reinsert(FakeUop(0))
    assert len(queue) == 3 > queue.capacity
    assert orders(queue) == [0, 1, 2]


def test_remove_many():
    # The issue stage drops exactly the uops it issued: at every cycle
    # boundary each queue holds only waiting uops that point back at it.
    def check(processor):
        for queue in queues(processor):
            for uop in queue:
                assert uop.state == STATE_WAITING and uop.iq is queue
    run_checked(check, predictor="stride", steering="vpb")


def test_zero_capacity_rejected():
    with pytest.raises(ValueError):
        IssueQueue(0)
