"""Pipeline watchdog: turn a silent hang into a diagnosable failure.

A cycle-level model with selective reissue, store queues and a bounded
interconnect has many ways to wedge — a lost wakeup, a register leak, a
reservation that is never released.  Before this module the timing loop
either spun forever or raised a bare one-line error.  The watchdog
tracks forward progress (commits) against a configurable cycle budget
and, on expiry, captures a :class:`PipelineSnapshot` of every stall-
relevant structure and raises :class:`~repro.errors.DeadlockError`.

The snapshot is collected *lazily*: per-cycle cost is two integer
compares, and the expensive structure walk happens only on the failure
path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import DeadlockError

__all__ = ["ClusterSnapshot", "PipelineSnapshot", "PipelineWatchdog"]


@dataclass
class ClusterSnapshot:
    """Stall-relevant state of one cluster at capture time."""

    cluster_id: int
    iq_int_occupancy: int
    iq_int_capacity: int
    iq_fp_occupancy: int
    iq_fp_capacity: int
    #: Free physical registers per bank (int, fp).
    free_pregs: List[int] = field(default_factory=list)

    def render(self) -> str:
        return (f"cluster {self.cluster_id}: "
                f"iq_int {self.iq_int_occupancy}/{self.iq_int_capacity} "
                f"iq_fp {self.iq_fp_occupancy}/{self.iq_fp_capacity} "
                f"free_pregs {self.free_pregs}")


@dataclass
class PipelineSnapshot:
    """Structured post-mortem of a stuck pipeline.

    Everything a human (or a campaign ledger) needs to diagnose a hang
    without re-running under a debugger: where the ROB head is stuck,
    how full each issue queue is, how many physical registers remain,
    and what the interconnect still has in flight.
    """

    cycle: int
    last_commit_cycle: int
    budget: int
    rob_occupancy: int
    rob_size: int
    rob_head: Optional[str]
    rob_head_unverified: Optional[int]
    rob_head_min_issue: Optional[int]
    fetch_done: bool
    clusters: List[ClusterSnapshot] = field(default_factory=list)
    #: Interconnect path reservations not yet delivered.
    inflight_bus_messages: int = 0
    pending_store_addrs: int = 0
    stores_awaiting_data: int = 0
    decode_stalls: Dict[str, int] = field(default_factory=dict)
    #: Program instructions dispatched to each cluster up to the hang.
    dispatched_per_cluster: List[int] = field(default_factory=list)
    #: Uops issued from each cluster up to the hang.
    issued_per_cluster: List[int] = field(default_factory=list)
    #: Trailing pipeline events (dict form, oldest first) when an event
    #: tracer was installed; empty without one.  This is the post-mortem
    #: flight recorder: the last things the machine did before wedging.
    recent_events: List[dict] = field(default_factory=list)

    def render(self) -> str:
        """Multi-line human-readable dump (embedded in DeadlockError)."""
        lines = [
            f"pipeline snapshot @ cycle {self.cycle} "
            f"(no commit since cycle {self.last_commit_cycle}, "
            f"budget {self.budget}):",
            f"  ROB {self.rob_occupancy}/{self.rob_size}, "
            f"fetch {'done' if self.fetch_done else 'active'}",
        ]
        if self.rob_head is not None:
            lines.append(f"  ROB head: {self.rob_head} "
                         f"unverified={self.rob_head_unverified} "
                         f"min_issue={self.rob_head_min_issue}")
        for cluster in self.clusters:
            lines.append("  " + cluster.render())
        lines.append(f"  in-flight bus messages: "
                     f"{self.inflight_bus_messages}")
        lines.append(f"  pending store addrs: {self.pending_store_addrs}, "
                     f"stores awaiting data: {self.stores_awaiting_data}")
        if self.decode_stalls:
            lines.append(f"  decode stalls: {self.decode_stalls}")
        if self.dispatched_per_cluster:
            lines.append(f"  dispatched/cluster: "
                         f"{self.dispatched_per_cluster}, "
                         f"issued/cluster: {self.issued_per_cluster}")
        if self.recent_events:
            lines.append(f"  last {len(self.recent_events)} events:")
            for event in self.recent_events:
                parts = [f"{key}={value}" for key, value in event.items()
                         if key not in ("cycle", "event")]
                lines.append(f"    c{event['cycle']:<8} "
                             f"{event['event']:<13} {' '.join(parts)}")
        return "\n".join(lines)


class PipelineWatchdog:
    """Detects no-forward-progress within a configurable cycle budget.

    The processor notifies the watchdog once per cycle via
    :meth:`check`; the watchdog calls the ``snapshot_fn`` passed along
    only when the budget expires, then raises :class:`DeadlockError`
    carrying the snapshot.  The watchdog keeps no reference to the
    processor: one stored callback would make the pair a reference
    cycle, which outlives the run until a full garbage collection —
    together with everything the processor holds.
    """

    def __init__(self, budget: int) -> None:
        if budget < 1:
            raise ValueError("watchdog budget must be >= 1 cycle")
        self.budget = budget
        self.last_commit_cycle = 0

    def note_commit(self, cycle: int) -> None:
        """Record that at least one uop retired at *cycle*."""
        self.last_commit_cycle = cycle

    def check(self, cycle: int, snapshot_fn) -> None:
        """Raise :class:`DeadlockError` when the budget is exhausted.

        *snapshot_fn* ``(cycle, last_commit_cycle, budget)`` builds the
        :class:`PipelineSnapshot` the error carries.
        """
        if cycle - self.last_commit_cycle <= self.budget:
            return
        snapshot: PipelineSnapshot = snapshot_fn(
            cycle, self.last_commit_cycle, self.budget)
        raise DeadlockError(
            f"pipeline made no forward progress for {self.budget} cycles "
            f"(cycle {cycle}, last commit at cycle "
            f"{self.last_commit_cycle})\n{snapshot.render()}",
            cycle=cycle, snapshot=snapshot)
