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
2. **Bound soundness** — under random dispatch / reinsert / issue
   sequences against a bare queue, ``next_try`` never exceeds any
   entry's earliest possible issue cycle (``max(min_issue_cycle,
   wake_cycle)``), so the issue stage can never skip a wakeable entry.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cluster.cluster as cluster_mod
import repro.core.processor as processor_mod
from repro.cluster.issue_queue import NEXT_TRY_IDLE, IssueQueue
from repro.core import make_config, simulate
from repro.core.uop import Uop
from repro.isa import ProgramBuilder, execute
from repro.obs import EventTracer, RingBufferSink
from repro.obs.events import EV_COMMIT, EV_ISSUE
from repro.validation.faults import FaultPlan
from repro.workloads import workload_trace

INT_BINOPS = ["add", "sub", "and", "or", "xor", "min", "max", "mul"]
SCRATCH = [f"r{i}" for i in range(8, 24)]


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


@st.composite
def random_programs(draw):
    body_ops = draw(st.lists(
        st.tuples(st.sampled_from(INT_BINOPS + ["lw", "sw", "addi", "fp"]),
                  st.integers(0, len(SCRATCH) - 1),
                  st.integers(0, len(SCRATCH) - 1),
                  st.integers(0, 15)),
        min_size=3, max_size=30))
    iters = draw(st.integers(min_value=2, max_value=25))
    b = ProgramBuilder()
    buf = b.data("buf", list(range(16)))
    b.emit("li", "r1", buf)
    b.emit("li", "r6", 0)
    b.emit("li", "r7", iters)
    for i, reg in enumerate(SCRATCH):
        b.emit("li", reg, i + 1)
    b.emit("li", "r24", 2)
    b.emit("cvtif", "f8", "r24")
    b.emit("cvtif", "f9", "r24")
    b.label("loop")
    for op, a, c, imm in body_ops:
        ra, rc = SCRATCH[a], SCRATCH[c]
        if op == "lw":
            b.emit("lw", ra, "r1", 4 * (imm % 16))
        elif op == "sw":
            b.emit("sw", ra, "r1", 4 * (imm % 16))
        elif op == "addi":
            b.emit("addi", ra, rc, imm - 8)
        elif op == "fp":
            b.emit("fadd", "f8", "f8", "f9")
        else:
            b.emit(op, ra, ra, rc)
    b.emit("addi", "r6", "r6", 1)
    b.emit("blt", "r6", "r7", "loop")
    b.emit("halt")
    return b.build()


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
@given(program=random_programs(),
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


class _StubUop:
    """Duck-typed queue entry (the queue never inspects anything else)."""

    __slots__ = ("order", "min_issue_cycle", "wake_cycle", "iq")

    def __init__(self, order, min_issue_cycle, wake_cycle=0):
        self.order = order
        self.min_issue_cycle = min_issue_cycle
        self.wake_cycle = wake_cycle
        self.iq = None


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(
    st.tuples(st.sampled_from(["dispatch", "reinsert", "issue"]),
              st.integers(0, 50)),
    min_size=1, max_size=40))
def test_next_try_bound_never_skips_a_wakeable_entry(ops):
    """``next_try`` stays <= every entry's earliest possible issue cycle."""
    queue = IssueQueue(capacity=64)
    order = 0
    for action, min_issue in ops:
        if action == "dispatch" and queue.has_space:
            queue.dispatch(_StubUop(order, min_issue))
            order += 1
        elif action == "reinsert":
            # Invalidated uops re-enter at age order with their wake
            # cleared; bias the age into the middle of the queue.
            queue.reinsert(_StubUop(order - min_issue, min_issue,
                                    wake_cycle=NEXT_TRY_IDLE))
            order += 1
        elif action == "issue" and len(queue) > 0:
            entries = list(queue)
            queue.remove_many(entries[:1 + min_issue % len(entries)])
        earliest = [max(u.min_issue_cycle, u.wake_cycle) for u in queue]
        if earliest:
            assert queue.next_try <= min(earliest)
        # Removals may leave the bound stale-low; that costs a wasted
        # scan, never a missed wake.
        assert queue.next_try <= NEXT_TRY_IDLE
