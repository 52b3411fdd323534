"""Fetch engine: turns the dynamic trace into per-cycle fetch groups.

Models the paper's centralized, aggressive front end: up to ``width``
instructions per cycle, I-cache stalls on line misses, and — this being
a trace-driven simulator — a fetch *stall* from a mispredicted
conditional branch until the core reports the branch resolved (plus one
redirect cycle).  Fetch may continue past taken branches in the same
cycle ("aggressive instruction fetch mechanism", §2).

Fetched instructions enter the fetch buffer (``_buffer``).  The decode
stage (:mod:`repro.core.processor`) drains it in order, taking only
instructions fetched in an earlier cycle ("value predictions are
available 1 cycle after the fetch, i.e. at the decode stage" relies on
this spacing), and pops each one only once it dispatches.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterator, Optional

from ..isa.instruction import DynInst

__all__ = ["FetchEngine", "FetchedInst"]


class FetchedInst:
    """A trace instruction annotated with front-end outcomes.

    ``predictions`` holds decode's per-slot value predictions once
    decode has made them; a decode that stalls and retries reuses them.
    """

    __slots__ = ("dyn", "fetch_cycle", "mispredicted", "predictions")

    def __init__(self, dyn: DynInst, fetch_cycle: int,
                 mispredicted: bool) -> None:
        self.dyn = dyn
        self.fetch_cycle = fetch_cycle
        self.mispredicted = mispredicted
        self.predictions = None


class FetchEngine:
    """Per-cycle instruction supply for the decode stage.

    Args:
        trace: iterator of :class:`DynInst` in commit order.
        icache_access: callable ``pc -> latency`` (the L1I access).
        branch_predictor: object with ``predict(pc)`` / ``update(pc, taken)``.
        width: fetch width (instructions per cycle).
        buffer_capacity: fetch-buffer depth decoupling fetch from decode.
        icache_hit_time: latency treated as "no stall".
    """

    def __init__(self, trace: Iterator[DynInst],
                 icache_access: Callable[[int], int],
                 branch_predictor, width: int = 8,
                 buffer_capacity: int = 16,
                 icache_hit_time: int = 1,
                 btb=None) -> None:
        self._trace = iter(trace)
        self._icache_access = icache_access
        self._bpred = branch_predictor
        #: Optional BranchTargetBuffer; None models perfect targets.
        self._btb = btb
        self.width = width
        self.buffer_capacity = buffer_capacity
        self._hit_time = icache_hit_time
        self._buffer: deque = deque()
        self._lookahead: Optional[DynInst] = self._advance()
        self._stalled_until = 0
        self._waiting_branch: Optional[int] = None  # seq of unresolved branch
        self._last_line: Optional[int] = None
        self.fetched_count = 0
        self.branch_stall_cycles = 0
        self.icache_stall_cycles = 0

    # -- trace plumbing -------------------------------------------------------

    def _advance(self) -> Optional[DynInst]:
        try:
            return next(self._trace)
        except StopIteration:
            return None

    @property
    def done(self) -> bool:
        """True when nothing remains to fetch or decode."""
        return self._lookahead is None and not self._buffer

    # -- per-cycle operation ---------------------------------------------------

    def tick(self, cycle: int) -> int:
        """Fetch this cycle's group into the buffer; returns the count."""
        if self._waiting_branch is not None:
            self.branch_stall_cycles += 1
            return 0
        if cycle < self._stalled_until:
            self.icache_stall_cycles += 1
            return 0
        fetched = 0
        while (fetched < self.width and self._lookahead is not None
               and len(self._buffer) < self.buffer_capacity):
            dyn = self._lookahead
            static = dyn.static
            line = static.pc >> 5  # any fixed granularity works; L1I decides
            if line != self._last_line:
                latency = self._icache_access(static.pc)
                self._last_line = line
                if latency > self._hit_time:
                    # Miss: this group ends here; fetch resumes after the
                    # line arrives.  The missing instruction stays in the
                    # lookahead and is fetched first after the stall.
                    self._stalled_until = cycle + latency
                    break
            mispredicted = False
            if static.is_cond_branch:
                prediction = self._bpred.predict(static.pc)
                self._bpred.update(static.pc, dyn.taken)
                mispredicted = prediction != dyn.taken
                if (not mispredicted and prediction
                        and self._needs_btb(dyn)):
                    mispredicted = True   # taken but target unknown
            elif static.is_branch and self._needs_btb(dyn):
                mispredicted = True       # unconditional, target unknown
            self._buffer.append(FetchedInst(dyn, cycle, mispredicted))
            self._lookahead = self._advance()
            fetched += 1
            self.fetched_count += 1
            if mispredicted:
                self._waiting_branch = dyn.seq
                break
        return fetched

    def _needs_btb(self, dyn: DynInst) -> bool:
        """True when a taken transfer's target is not in the BTB.

        With no BTB configured, targets are perfect (the paper's
        unstated assumption).  The BTB trains at fetch with the actual
        target, mirroring the speculative direction-predictor update.
        """
        if self._btb is None:
            return False
        static = dyn.static
        cached = self._btb.lookup(static.pc)
        if dyn.taken:
            self._btb.update(static.pc, static.target)
        return cached != static.target

    def branch_resolved(self, seq: int, cycle: int) -> None:
        """Core notification: the mispredicted branch *seq* resolved.

        Fetch resumes the cycle after resolution (one redirect cycle).
        """
        if self._waiting_branch == seq:
            self._waiting_branch = None
            self._stalled_until = max(self._stalled_until, cycle + 1)
            self._last_line = None  # redirect refetches the target line
