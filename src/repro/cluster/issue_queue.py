"""Per-cluster instruction (issue) queues: the state the issue rules use.

Each cluster has separate integer and floating-point queues ("instruction
queues (separate integer and FP)", §2.4).  The rules live in the cycle
loop (:mod:`repro.core.processor`): ``_dispatch`` appends a uop (dispatch
order is age order) and lowers ``next_try``; decode stalls while the
entry count has reached ``capacity``; ``_issue`` rebuilds the entry list
without the uops it issued.  A value-misspeculated instruction that must
reissue re-enters the queue *in age order* (:meth:`IssueQueue.reinsert`,
called by the invalidation walk); re-entry is allowed to exceed the
capacity momentarily, modelling the paper's "the mechanism is in fact
the existing issue mechanism, and therefore we have assumed no
additional penalty for each instruction restart" (§2.2).

Batched ready-list scanning: every queue maintains ``next_try`` — a
lower bound on the earliest cycle at which *any* of its entries could
issue.  The issue stage skips the whole queue while ``next_try > cycle``
(an idle or fully sleeping queue costs one integer compare per cycle),
and recomputes the bound from the entries it visits whenever it does
scan.  The bound is kept conservative-low through the same event-driven
machinery that wakes individual uops: dispatch and ``reinsert`` lower
it to the entering uop's ``min_issue_cycle``, and
``RegisterFile.set_ready`` lowers it through the ``Uop.iq`` back-
reference whenever a wake lowers a parked uop's ``wake_cycle``.  Wakes
only ever *lower* the bound, so a queue can never sleep through a cycle
at which one of its uops could have issued — the scan order, and
therefore the committed stream, is identical to the per-cycle linear
rescan (property-tested in tests/core/test_wake_invariant.py).
"""

from __future__ import annotations

from typing import Iterator, List

__all__ = ["IssueQueue", "NEXT_TRY_IDLE"]

#: ``next_try`` value of a queue with no wakeable entries (an empty
#: queue, or one whose every entry sleeps with no scheduled wake yet).
#: Larger than any simulated cycle; dispatches and wakes lower it.
NEXT_TRY_IDLE = 1 << 62


class IssueQueue:
    """An age-ordered queue of in-flight uops."""

    __slots__ = ("capacity", "_entries", "next_try")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("issue queue capacity must be positive")
        self.capacity = capacity
        self._entries: List[object] = []
        #: Earliest cycle any entry could issue (lower bound); the
        #: issue stage skips the queue entirely until then.
        self.next_try = NEXT_TRY_IDLE

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator:
        return iter(self._entries)

    def reinsert(self, uop) -> None:
        """Re-enter an invalidated uop at its age position, found
        walking back from the youngest entry (orders are unique)."""
        uop.wake_cycle = 0  # its operands changed; rescan immediately
        uop.iq = self
        entries = self._entries
        i = len(entries)
        while i and entries[i - 1].order > uop.order:
            i -= 1
        entries.insert(i, uop)
        if uop.min_issue_cycle < self.next_try:
            self.next_try = uop.min_issue_cycle
