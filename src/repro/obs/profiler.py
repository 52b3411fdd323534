"""Host-side phase profiler: where the *simulator's* wall-clock goes.

The simulated machine's bottlenecks live in :class:`SimStats`; this
profiler answers the other question — which stage of the Python timing
loop burns the host CPU — so perf work targets the real hot path
instead of folklore.  The processor's run loop, when a profiler is
installed, brackets each pipeline stage with ``perf_counter`` reads
and attributes the elapsed time to one of the phases:

``events``   writeback/verification event processing + store-data drain
``commit``   in-order retirement + watchdog accounting
``issue``    per-cluster wakeup/select and NREADY metering
``decode``   value prediction, steering, rename, dispatch
``fetch``    front-end buffer refill
``other``    per-cycle bookkeeping (interval sampling, pruning)

With no profiler installed the run loop contains no timing calls at
all — the disabled path costs nothing.
"""

from __future__ import annotations

import time
from typing import Dict

__all__ = ["PhaseProfiler", "PHASES"]

PHASES = ("events", "commit", "issue", "decode", "fetch", "other")


class PhaseProfiler:
    """Accumulates wall-clock seconds per simulator loop phase."""

    __slots__ = ("seconds", "cycles", "total_seconds", "clock")

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {phase: 0.0 for phase in PHASES}
        self.cycles = 0
        self.total_seconds = 0.0
        self.clock = time.perf_counter

    def add(self, phase: str, seconds: float) -> None:
        self.seconds[phase] += seconds

    @property
    def attributed_seconds(self) -> float:
        """Sum over phases (excludes loop overhead outside brackets)."""
        return sum(self.seconds.values())

    def to_dict(self) -> dict:
        """JSON-ready profile (phase seconds, shares, throughput)."""
        attributed = self.attributed_seconds
        return {
            "phases": {phase: round(value, 6)
                       for phase, value in self.seconds.items()},
            "shares": {phase: (round(value / attributed, 4)
                               if attributed else 0.0)
                       for phase, value in self.seconds.items()},
            "attributed_seconds": round(attributed, 6),
            "total_seconds": round(self.total_seconds, 6),
            "cycles": self.cycles,
            "cycles_per_second": (round(self.cycles / self.total_seconds, 1)
                                  if self.total_seconds else 0.0),
        }

    def report(self) -> str:
        """Human-readable phase table."""
        attributed = self.attributed_seconds or 1.0
        lines = [f"{'phase':<8} {'seconds':>9} {'share':>7}"]
        for phase in PHASES:
            value = self.seconds[phase]
            lines.append(f"{phase:<8} {value:9.4f} "
                         f"{value / attributed:6.1%}")
        lines.append(f"{'total':<8} {self.total_seconds:9.4f} "
                     f"({self.cycles} cycles)")
        return "\n".join(lines)
