"""Per-cluster physical register file scoreboard.

Timing-only: each physical register tracks the cycle at which its value
becomes usable by instructions issuing in this cluster (local bypasses
are folded into the ready cycle: a producer issuing at cycle *c* with
latency *l* marks its destination ready at ``c + l``, which lets a local
dependent issue back-to-back).  ``producer`` links each pending register
to the uop that will write it, which steering (rule 2.1) and the
invalidation walk both need.

The cycle loop (:mod:`repro.core.processor`) reads ``ready`` directly,
and its commit stage resets a freed register's entry (ready ``NEVER``,
no producer, every waiter woken) next to the free-pool release.
"""

from __future__ import annotations

from typing import Dict, List, Optional

__all__ = ["RegisterFile", "NEVER"]

#: Sentinel ready-cycle for "no value scheduled yet".
NEVER = 1 << 60


class RegisterFile:
    """Ready-time scoreboard over ``n_pregs`` physical registers."""

    __slots__ = ("n_pregs", "ready", "producer", "waiters")

    def __init__(self, n_pregs: int) -> None:
        if n_pregs <= 0:
            raise ValueError("register file size must be positive")
        self.n_pregs = n_pregs
        self.ready: List[int] = [NEVER] * n_pregs
        self.producer: List[Optional[object]] = [None] * n_pregs
        #: Issue-stage wakeup: uops parked on a register's readiness.
        #: ``set_ready`` lowers each waiter's ``wake_cycle`` to the new
        #: ready cycle (and its issue queue's ``next_try`` bound through
        #: the ``Uop.iq`` back-reference).  The list lives until the
        #: register is freed: selective reissue can reset the register to
        #: pending and reschedule it *earlier*, and the waiters already
        #: woken for the old cycle must hear of that too.  A stale entry
        #: (the waiter issued or was invalidated meanwhile) only
        #: triggers a harmless extra scan, never a wrong skip.
        self.waiters: Dict[int, List[object]] = {}

    def set_ready(self, preg: int, cycle: int) -> None:
        """Value of *preg* becomes usable at *cycle*."""
        self.ready[preg] = cycle
        waiters = self.waiters.get(preg)
        if waiters:
            for uop in waiters:
                if cycle < uop.wake_cycle:
                    uop.wake_cycle = cycle
                    iq = uop.iq
                    if iq is not None and cycle < iq.next_try:
                        iq.next_try = cycle

    def set_pending(self, preg: int, producer) -> None:
        """*preg* is allocated but its value is still being produced."""
        self.ready[preg] = NEVER
        self.producer[preg] = producer
