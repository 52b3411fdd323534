"""The structured event tracer the timing core emits into.

A :class:`EventTracer` wraps one sink (see :mod:`repro.obs.sinks`).
Producers emit event tuples (:data:`repro.obs.events.EVENT_FIELDS`)
straight into it: the :class:`~repro.core.processor.Processor` bumps
``counts[code]`` and calls ``emit(tuple)`` inline at its pipeline hook
points, and the interconnect calls :meth:`EventTracer.bus`.  They do so
when (and only when) a tracer is installed — with no tracer, every hook
is a single ``is not None`` test, so the untraced simulation is
unperturbed and its committed stream and statistics are bit-identical
to a build without the hooks.

The tracer also guarantees a *post-mortem window*: :meth:`recent`
returns the trailing events for deadlock snapshots (see
``docs/ROBUSTNESS.md``).  Sinks that retain events in memory serve the
window directly; streaming sinks (JSONL, Chrome trace) get a small
internal ring so post-mortems work in every mode.
"""

from __future__ import annotations

from typing import List

from .events import EV_BUS, event_to_dict
from .sinks import RingBufferSink

__all__ = ["EventTracer", "POSTMORTEM_WINDOW"]

#: Trailing events kept for deadlock post-mortems when the sink itself
#: cannot serve a tail (streaming sinks).
POSTMORTEM_WINDOW = 64


class EventTracer:
    """Emit typed pipeline events into *sink*.

    Args:
        sink: any object with ``append(event_tuple)`` — usually one of
            :mod:`repro.obs.sinks`.  Defaults to a fresh
            :class:`~repro.obs.sinks.RingBufferSink`.
    """

    __slots__ = ("sink", "emit", "_tail", "counts")

    def __init__(self, sink=None) -> None:
        if sink is None:
            sink = RingBufferSink()
        self.sink = sink
        #: Events emitted per event code (cheap completeness ledger —
        #: bounded sinks drop old events, the counts never lie).
        self.counts = [0] * 10
        if hasattr(sink, "tail"):
            # In-memory sink: it serves the post-mortem window itself
            # and ``emit`` is the sink's own bound append — no
            # indirection at all on the hot path.
            self._tail = sink
            self.emit = sink.append
        else:
            # Streaming sink: tee into a small internal ring so
            # post-mortems work in every mode.  The closure costs one
            # extra call per event, acceptable next to serialization.
            ring = RingBufferSink(POSTMORTEM_WINDOW)
            self._tail = ring
            sink_append = sink.append
            ring_append = ring.append

            def tee(event: tuple) -> None:
                sink_append(event)
                ring_append(event)
            self.emit = tee

    # -- emission -------------------------------------------------------------
    # The timing core emits inline, ``counts[code] += 1`` then
    # ``emit(tuple)`` (a bound C append, ~10x cheaper than a Python
    # method call per event); only the bus's event has a method.

    def bus(self, cycle: int, dest_cluster: int) -> None:
        self.counts[EV_BUS] += 1
        self.emit((cycle, EV_BUS, dest_cluster, cycle))

    # -- post-mortem / lifecycle ----------------------------------------------

    @property
    def total_events(self) -> int:
        return sum(self.counts)

    def recent(self, k: int = POSTMORTEM_WINDOW) -> List[dict]:
        """The trailing *k* events as dicts (deadlock snapshots)."""
        return [event_to_dict(event) for event in self._tail.tail(k)]

    def close(self) -> None:
        """Close the underlying sink (flushes file-backed output)."""
        self.sink.close()

    def __enter__(self) -> "EventTracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
