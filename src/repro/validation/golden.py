"""Golden-model co-simulator: the committed stream, re-checked.

The timing simulator replays a functional trace, so "the program ran
correctly" is an *assumption*, not a checked property — a commit-order
bug, a double commit, or an unrecovered value-speculation fault would
silently produce wrong statistics.  The co-simulator turns that
assumption into an invariant:

* every committed program instruction must be the *next* record of the
  functional trace (no skips, duplicates, or reordering);
* its source operand values must equal the golden architectural
  register state built by replaying the previous commits;
* for operations whose result depends only on their sources and
  immediate (register-to-register and immediate forms alike) the
  result is **re-executed** from the golden sources and compared
  against the trace.

Commits are buffered and replayed in batches of ``interval`` (the
configurable "every N commits"), so the hot commit path only appends to
a list.  Any mismatch raises :class:`~repro.errors.DivergenceError`
carrying the cycle, PC, sequence number, executing cluster and a
register-level diff.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import DivergenceError
from ..isa.executor import recompute_result
from ..isa.instruction import DynInst
from ..isa.registers import FP_BASE, NUM_LOGICAL_REGS, ZERO_REG, reg_name

__all__ = ["GoldenModel"]


class GoldenModel:
    """Replays the committed instruction stream against golden state.

    Args:
        interval: commits buffered between replay batches.  Smaller
            catches divergence sooner (tighter blast radius in the
            error report); larger amortizes the replay loop better.
    """

    def __init__(self, interval: int = 256) -> None:
        if interval < 1:
            raise ValueError("golden interval must be >= 1")
        self.interval = interval
        self.int_regs: List[int] = [0] * FP_BASE
        self.fp_regs: List[float] = [0.0] * (NUM_LOGICAL_REGS - FP_BASE)
        self._expected_seq = 0
        self._batch: List[Tuple[DynInst, int, int]] = []
        #: Total commits replayed and verified so far.
        self.checked = 0
        #: Replay batches run (diagnostics).
        self.batches = 0

    # -- architectural state ------------------------------------------------

    def _read(self, rid: int):
        if rid < FP_BASE:
            return self.int_regs[rid]
        return self.fp_regs[rid - FP_BASE]

    def _write(self, rid: int, value) -> None:
        if rid < FP_BASE:
            if rid != ZERO_REG:
                self.int_regs[rid] = value
        else:
            self.fp_regs[rid - FP_BASE] = value

    def register_state(self) -> Dict[str, object]:
        """The golden architectural register file, by register name."""
        state: Dict[str, object] = {}
        for rid in range(NUM_LOGICAL_REGS):
            state[reg_name(rid)] = self._read(rid)
        return state

    # -- co-simulation ------------------------------------------------------

    def on_commit(self, dyn: DynInst, cycle: int, cluster: int) -> None:
        """Record one committed program instruction; replay every N."""
        self._batch.append((dyn, cycle, cluster))
        if len(self._batch) >= self.interval:
            self._replay()

    def finish(self, cycle: Optional[int] = None) -> int:
        """Flush and verify the remaining buffered commits.

        Returns the total number of commits verified.  Call once the
        timing loop drains (or stops at its cycle cap).
        """
        del cycle  # uniform signature with on_commit; unused
        if self._batch:
            self._replay()
        return self.checked

    def _replay(self) -> None:
        batch, self._batch = self._batch, []
        self.batches += 1
        for dyn, cycle, cluster in batch:
            self._check_one(dyn, cycle, cluster)
            self.checked += 1

    def _check_one(self, dyn: DynInst, cycle: int, cluster: int) -> None:
        if dyn.seq != self._expected_seq:
            raise DivergenceError(
                f"commit stream diverged from the functional trace: "
                f"expected seq {self._expected_seq}, committed seq "
                f"{dyn.seq} (pc={dyn.pc:#x}, {dyn.op.name}) at cycle "
                f"{cycle} on cluster {cluster}",
                cycle=cycle, pc=dyn.pc, seq=dyn.seq, cluster=cluster)
        self._expected_seq += 1
        # Source operands must match the golden architectural state.
        diff: Dict[str, Tuple[object, object]] = {}
        for slot, rid in enumerate(dyn.srcs):
            if rid == ZERO_REG:
                continue
            golden = self._read(rid)
            traced = dyn.src_values[slot]
            if golden != traced:
                diff[reg_name(rid)] = (golden, traced)
        if diff:
            raise DivergenceError(
                f"architectural state diverged at seq {dyn.seq} "
                f"(pc={dyn.pc:#x}, {dyn.op.name}, cycle {cycle}, cluster "
                f"{cluster}): register diff (golden, trace) = {diff}",
                cycle=cycle, pc=dyn.pc, seq=dyn.seq, cluster=cluster,
                register_diff={name: {"golden": g, "trace": t}
                               for name, (g, t) in diff.items()})
        # Re-execute pure operations and compare each result with what
        # the architecture writes: the computed value, or 0 for r0.
        if dyn.dest is not None:
            known, recomputed = recompute_result(dyn.op.name,
                                                 dyn.src_values,
                                                 dyn.static.imm)
            if dyn.dest == ZERO_REG:
                recomputed = 0
            if known and recomputed != dyn.result:
                raise DivergenceError(
                    f"re-executed result diverged at seq {dyn.seq} "
                    f"(pc={dyn.pc:#x}, {dyn.op.name}, cycle {cycle}, "
                    f"cluster {cluster}): golden {recomputed!r} != trace "
                    f"{dyn.result!r}",
                    cycle=cycle, pc=dyn.pc, seq=dyn.seq, cluster=cluster,
                    register_diff={reg_name(dyn.dest): {
                        "golden": recomputed, "trace": dyn.result}})
            self._write(dyn.dest, dyn.result)

    # -- end-of-run comparison ----------------------------------------------

    def diff_against(self, other_state: Dict[str, object]
                     ) -> Dict[str, Tuple[object, object]]:
        """Register-level diff of golden state against *other_state*."""
        mine = self.register_state()
        return {name: (mine.get(name), value)
                for name, value in other_state.items()
                if mine.get(name) != value}

    def matches_executor(self, executor_state: Dict[str, object]) -> bool:
        """True when golden state equals a functional executor's state."""
        return not self.diff_against(executor_state)
