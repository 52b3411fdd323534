"""Property test of the batched ready-list (``next_try``) wake invariant.

The issue stage skips any :class:`~repro.cluster.issue_queue.IssueQueue`
whose ``next_try`` bound lies in the future (docs in issue_queue.py).
That is only sound if the bound is *conservative-low*: a queue must
never sleep through a cycle at which one of its entries could have
issued.  Two properties pin it:

1. **End-to-end equivalence** — on randomly generated programs and
   configurations, and on one pinned suite cell, a simulator whose
   queues are forced to scan every cycle and whose uops never sleep
   (the plain linear rescan the batching replaced) issues the same
   uops, in the same order, on the same cycles, and retires the same
   committed stream with bit-identical stats.
2. **Bound soundness** — at every cycle boundary of a real processor
   on random programs, no queue's ``next_try`` lies beyond both the
   current cycle and its waiting entries' earliest possible issue
   cycle (``max(min_issue_cycle, wake_cycle)``), so the issue stage can
   never skip a wakeable entry.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cluster.cluster as cluster_mod
import repro.core.processor as processor_mod
from repro.cluster.issue_queue import IssueQueue
from repro.core import make_config, simulate
from repro.core.processor import Processor
from repro.core.uop import STATE_WAITING, Uop
from repro.isa import execute
from repro.obs import EventTracer, RingBufferSink
from repro.obs.events import EV_COMMIT, EV_ISSUE
from repro.validation.faults import FaultPlan
from repro.workloads import workload_trace

from ..conftest import at_cycle_boundaries
from .test_processor_properties import random_programs


class AlwaysScanQueue(IssueQueue):
    """An IssueQueue whose ``next_try`` bound never defers a scan.

    Reading ``next_try`` always yields 0, so the issue stage scans the
    queue every cycle — the exact per-cycle linear rescan the batching
    replaced.  Writes are discarded: scanning a queue none of whose
    entries can issue is a no-op, so if batching is sound this changes
    nothing observable.
    """

    @property
    def next_try(self) -> int:  # type: ignore[override]
        return 0

    @next_try.setter
    def next_try(self, value: int) -> None:
        pass


class NeverSleepingUop(Uop):
    """A Uop whose ``wake_cycle`` always reads 0.

    The issue scan skips a uop until its ``wake_cycle``; with this
    class every uop in a scanned queue is visited every cycle, so no
    stale wake bound can hide a cycle in which it is ready.  Writes are
    discarded.
    """

    __slots__ = ()

    @property
    def wake_cycle(self) -> int:  # type: ignore[override]
        return 0

    @wake_cycle.setter
    def wake_cycle(self, value: int) -> None:
        pass


def _issue_and_commit_stream(trace, config, force_linear, fault_plan=None):
    """(issue events, commit events, stats dict) of one simulation."""
    sink = RingBufferSink(capacity=1 << 20)
    originals = cluster_mod.IssueQueue, processor_mod.Uop
    if force_linear:
        cluster_mod.IssueQueue = AlwaysScanQueue
        processor_mod.Uop = NeverSleepingUop
    try:
        result = simulate(list(trace), config, tracer=EventTracer(sink),
                          fault_plan=fault_plan)
    finally:
        cluster_mod.IssueQueue, processor_mod.Uop = originals
    issues = [ev for ev in sink.events if ev[1] == EV_ISSUE]
    commits = [ev for ev in sink.events if ev[1] == EV_COMMIT]
    return issues, commits, result.to_dict()


@settings(max_examples=12, deadline=None)
@given(program=random_programs(max_body=30, max_iters=25),
       n_clusters=st.sampled_from([1, 2, 4]),
       predictor=st.sampled_from(["none", "stride", "context"]),
       steering=st.sampled_from(["baseline", "vpb", "dependence-only"]))
def test_batched_scan_is_bit_identical_to_linear_scan(
        program, n_clusters, predictor, steering):
    trace = execute(program, 1_500)
    config = make_config(n_clusters, predictor=predictor, steering=steering)
    batched = _issue_and_commit_stream(trace, config, force_linear=False)
    linear = _issue_and_commit_stream(trace, config, force_linear=True)
    # Same uops, same order, same cycles — for issue *and* commit —
    # and every aggregate metric identical.
    assert batched[0] == linear[0]
    assert batched[1] == linear[1]
    assert batched[2] == linear[2]


@pytest.mark.parametrize("workload, fault_plan, imbalance", [
    ("rawcaudio", None, 0.47294938917975565),
    # Value faults force many reissues; here a skipped ready cycle also
    # cost issue slots (1597 cycles with the rescan, 1623 without).
    ("cjpeg", FaultPlan.single("value", rate=0.05, seed=0),
     0.7564182842830307),
], ids=["rawcaudio", "cjpeg-value-faults"])
def test_rescheduled_value_wakes_already_woken_consumers(
        workload, fault_plan, imbalance):
    """Selective reissue can reset a scheduled register to pending and
    then reschedule it *earlier* than first set.  A consumer already
    woken for the old cycle must still be visited at the new one, or it
    sleeps through a cycle in which it is ready."""
    trace = workload_trace(workload, 4_000)
    config = make_config(4, predictor="stride", steering="vpb")
    batched = _issue_and_commit_stream(trace, config, force_linear=False,
                                       fault_plan=fault_plan)
    linear = _issue_and_commit_stream(trace, config, force_linear=True,
                                      fault_plan=fault_plan)
    assert linear[2]["imbalance"] == imbalance
    assert batched == linear


@settings(max_examples=12, deadline=None)
@given(program=random_programs(max_body=30, max_iters=25),
       config=st.sampled_from([
           dict(n_clusters=1),
           dict(n_clusters=4, predictor="stride", steering="vpb"),
           dict(n_clusters=2, predictor="stride", steering="vpb",
                comm_latency=4, comm_paths_per_cluster=1)]))
def test_next_try_bound_never_skips_a_wakeable_entry(program, config):
    """At every cycle boundary, no queue's ``next_try`` lies beyond both
    the current cycle and its waiting entries' earliest possible issue
    cycle (``max(min_issue_cycle, wake_cycle)``)."""
    trace = execute(program, 1_500)
    overrides = dict(config)
    processor = Processor(make_config(overrides.pop("n_clusters"),
                                      **overrides), iter(trace))

    def check(processor):
        for cluster in processor.clusters:
            for queue in (cluster.iq_int, cluster.iq_fp):
                earliest = [max(u.min_issue_cycle, u.wake_cycle)
                            for u in queue if u.state == STATE_WAITING]
                if earliest:
                    assert queue.next_try <= max(processor.cycle,
                                                 min(earliest))
    result = at_cycle_boundaries(processor, check)
    assert result.stats.committed_insts == len(trace)
