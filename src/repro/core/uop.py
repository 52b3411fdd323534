"""In-flight micro-operation state for the timing core.

Three kinds of uop flow through the back end:

* ``INST`` — a program instruction from the trace.
* ``COPY`` — a rename-generated register copy (§2.1): reads a physical
  register in the producer cluster and delivers it to a replica register
  in the consumer cluster over an inter-cluster path.
* ``VCOPY`` — a verification-copy (§2.2): issued in the producer cluster
  when a *predicted* remote operand's value is ready, compares it with
  the prediction locally, and forwards the value (invalidating the
  consumer) only on mismatch.

Operands carry their own speculation state so the issue logic can treat
"really ready" and "speculatively ready" uniformly.  Only a speculative
(``MODE_PRED``) operand is ever written after decode — verification
clears it or turns it into a register read or a forward — so only those
are built per instruction.  Every other operand is shared and read-only:
the processor builds one local read per physical register index and one
zero operand, and decode, dispatch and the copies hand those out.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..isa.instruction import DynInst

__all__ = ["Operand", "Uop",
           "KIND_INST", "KIND_COPY", "KIND_VCOPY",
           "MODE_ZERO", "MODE_LOCAL", "MODE_PRED", "MODE_FWD",
           "STATE_WAITING", "STATE_ISSUED", "STATE_DONE", "STATE_COMMITTED"]

KIND_INST = 0
KIND_COPY = 1
KIND_VCOPY = 2

#: Operand modes.
MODE_ZERO = 0    # hard-wired zero register / no value needed
MODE_LOCAL = 1   # read a local physical register when it is ready
MODE_PRED = 2    # speculatively use a predicted value (always "ready")
MODE_FWD = 3     # await a mismatch forward from a verification-copy

STATE_WAITING = 0
STATE_ISSUED = 1
STATE_DONE = 2
STATE_COMMITTED = 3


class Operand:
    """One source operand of an in-flight uop."""

    __slots__ = ("mode", "preg", "ready_override", "correct", "verified",
                 "injected")

    def __init__(self, mode: int, preg: Optional[int] = None,
                 correct: bool = True, injected: bool = False) -> None:
        self.mode = mode
        #: Local physical register (modes LOCAL and PRED-with-mapping).
        self.preg = preg
        #: Arrival cycle of a mismatch forward (mode FWD).
        self.ready_override = 0
        #: For PRED: whether the predicted value equals the true value.
        self.correct = correct
        #: Set once the producer-side verification has cleared this operand.
        self.verified = False
        #: This prediction was corrupted by the fault-injection harness;
        #: its detection is reported back to the injector.
        self.injected = injected


class Uop:
    """An in-flight micro-operation.

    Attributes:
        kind: ``KIND_INST`` / ``KIND_COPY`` / ``KIND_VCOPY``.
        dyn: trace record for INSTs; for copies, the producer's record
            (diagnostics only).
        order: global dispatch order — the age used by the issue queues.
        cluster: cluster whose resources execute this uop.
        int_side: consumes integer issue width/queue (else fp).
        fu: the functional-unit descriptor of an INST
            (:meth:`~repro.cluster.FUPool.descriptor`; its last field is
            the execution latency), ``None`` for copies.
        operands: source operands.
        dest_preg: destination register in ``dest_cluster``.
        dest_cluster: equals ``cluster`` for INSTs; the consumer cluster
            for COPYs; ``None`` for VCOPYs.
        unverified: number of this uop's own speculative operands whose
            predictions are still unverified (gates commit).
        readers: issued uops that consumed this uop's result while it
            could still be squashed (the selective-reissue walk).
        verify_list: (consumer_uop, operand) pairs whose predictions
            this producer must verify at writeback (§2.2); a shared
            empty tuple until the first one registers.
        free_on_commit: previous-mapping (cluster, preg) pairs to
            release at commit; a shared empty tuple for a uop that
            renames no destination.
        consumer / consumer_operand: VCOPY back-references.
        mispredicted_branch: direction predictor missed this branch.
        generation: bumped on invalidation so queued events become stale.
        wake_cycle: lower bound on the next cycle an issue attempt could
            succeed; the issue scan skips the uop until then.  Wakes
            (``RegisterFile.set_ready`` on an awaited register) only
            ever lower it, so a parked uop never oversleeps.
        iq: the :class:`~repro.cluster.issue_queue.IssueQueue` this uop
            was dispatched into (set by the queue).  Register-file wakes
            use it to lower the queue's ``next_try`` bound so a sleeping
            queue is rescanned exactly when one of its uops could issue.
        is_load / is_store: memory classification, materialized at
            construction (the commit and issue loops read them every
            cycle; only INST uops can be memory operations).
    """

    __slots__ = ("kind", "dyn", "order", "cluster", "int_side", "fu",
                 "operands", "dest_preg", "dest_cluster", "state",
                 "generation", "complete_cycle",
                 "min_issue_cycle", "unverified", "readers", "verify_list",
                 "free_on_commit", "consumer", "consumer_operand",
                 "mispredicted_branch", "reissue_count", "wake_cycle",
                 "iq", "is_load", "is_store")

    def __init__(self, kind: int, dyn: Optional[DynInst], order: int,
                 cluster: int, int_side: bool, fu: Optional[tuple],
                 operands: Optional[List[Operand]] = None,
                 min_issue_cycle: int = 0) -> None:
        self.kind = kind
        self.dyn = dyn
        self.order = order
        self.cluster = cluster
        self.int_side = int_side
        self.fu = fu
        if kind == KIND_INST and dyn is not None:
            self.is_load = dyn.is_load
            self.is_store = dyn.is_store
        else:
            self.is_load = False
            self.is_store = False
        self.iq = None
        self.operands: List[Operand] = ([] if operands is None
                                         else operands)
        self.dest_preg: Optional[int] = None
        self.dest_cluster: Optional[int] = None
        self.state = STATE_WAITING
        self.generation = 0
        self.complete_cycle: Optional[int] = None
        self.min_issue_cycle = min_issue_cycle
        self.unverified = 0
        self.readers: List["Uop"] = []
        self.verify_list: Sequence[Tuple["Uop", Operand]] = ()
        self.free_on_commit: Sequence[Tuple[int, int]] = ()
        self.consumer: Optional["Uop"] = None
        self.consumer_operand: Optional[Operand] = None
        self.mispredicted_branch = False
        self.reissue_count = 0
        self.wake_cycle = 0

    # -- classification helpers ------------------------------------------------

    @property
    def is_inst(self) -> bool:
        return self.kind == KIND_INST

    @property
    def is_copy(self) -> bool:
        return self.kind == KIND_COPY

    @property
    def is_vcopy(self) -> bool:
        return self.kind == KIND_VCOPY

    def kind_name(self) -> str:
        return ("inst", "copy", "vcopy")[self.kind]

    def __repr__(self) -> str:
        what = self.dyn.op.name if self.dyn is not None else "?"
        return (f"<Uop {self.kind_name()} order={self.order} {what} "
                f"cl={self.cluster} state={self.state}>")
