"""Sweep-level telemetry: typed run events, live progress, JSONL sink.

PR 3 instrumented the *microarchitecture* (per-cycle pipeline events);
this module instruments the *experiment layer*.  A
:class:`SweepMonitor` receives typed run events from the sweep runner
(``repro.analysis.parallel.run_cells``), the fault campaign and the
benchmarks, always in the parent process:

========================= ==============================================
event                     meaning
========================= ==============================================
``sweep_start``           a sweep of N cells began (label, jobs, chunk)
``cell_start``            one cell was dispatched for simulation
``cell_retry``            a cell attempt failed (attempt #, error type)
``cell_done``             a cell finished (ok / failed / cached flag)
``cache_hit``             a cell resolved from the result cache
``cache_miss``            a cell was looked up and not found
``cache_store``           a fresh result entered the cache
``sample_window``         one measured window of a sampled cell
``worker_up``             worker processes came up for this sweep
``worker_down``           worker processes were released
``sweep_done``            the sweep finished (completed/failed counts)
========================= ==============================================

The monitor renders live progress lines (cells done, throughput, ETA)
to a stream — ``stderr`` by default, carriage-return style on a TTY —
and can mirror every event to a JSONL file whose schema is validated
by :func:`repro.obs.schema.validate_telemetry_jsonl`.  Every event is
also kept in memory, so a :class:`~repro.analysis.provenance.RunReceipt`
can be assembled from the monitor after (or during) a run.

Like the result cache and the worker pool, a monitor is installed
ambiently (``with use_monitor(SweepMonitor(...)):``) so every sweep in
the block reports to it without parameter threading; with no monitor
installed the runner's hooks are single ``is not None`` guards and the
sweep pays nothing.

Crash safety: the JSONL sink flushes after every event and ``close()``
is idempotent, so a sweep killed by KeyboardInterrupt (or a crash
inside a driver) leaves a readable partial event log behind — the same
try/finally flush contract the PR-4 CLI trace sinks honour.

Determinism: the event *set* of a sweep, order-normalized by
:func:`normalize_events`, is identical between serial and parallel
runs of the same cells (worker transport events and wall-clock fields
are stripped); the tier-1 suite asserts this.
"""

from __future__ import annotations

import json
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, IO, List, Optional, Sequence

__all__ = ["TELEMETRY_SCHEMA", "TELEMETRY_EVENTS", "CellTelemetry",
           "SweepTelemetry", "SweepMonitor", "active_monitor",
           "eta_seconds", "normalize_events", "throughput",
           "use_monitor"]

#: Schema tag written as the first line of every telemetry JSONL file.
TELEMETRY_SCHEMA = "repro-telemetry-v1"

#: Every event name -> the payload fields it must carry (beyond the
#: envelope's ``event``/``seq``/``t``).  The JSONL validator enforces
#: this table.
TELEMETRY_EVENTS: Dict[str, tuple] = {
    "sweep_start": ("label", "cells", "jobs", "chunksize"),
    "cell_start": ("label", "key"),
    "cell_retry": ("label", "key", "attempt", "error"),
    "cell_done": ("label", "key", "ok", "cached"),
    "cache_hit": ("key",),
    "cache_miss": ("key",),
    "cache_store": ("key",),
    "sample_window": ("label", "key", "index", "start", "measured",
                      "cycles", "ipc"),
    "worker_up": ("jobs",),
    "worker_down": (),
    "sweep_done": ("label", "completed", "failed", "cached"),
}

#: Envelope/payload fields that legitimately differ between serial and
#: parallel runs of the same sweep (ordering, wall-clock, worker
#: topology).  :func:`normalize_events` strips them.
VOLATILE_FIELDS = frozenset({"seq", "t", "seconds", "jobs", "chunksize",
                             "elapsed", "eta", "rate"})

#: Events that describe the execution transport, not the sweep's
#: outcome; they exist only on some paths (no workers come up for a
#: serial run) and are dropped by :func:`normalize_events`.
TRANSPORT_EVENTS = frozenset({"worker_up", "worker_down"})


def throughput(done: float, elapsed: float) -> Optional[float]:
    """Cells per second, or ``None`` when not yet measurable.

    Never raises and never divides by zero: degenerate inputs (nothing
    done yet, a clock that has not advanced, clock weirdness producing
    negative elapsed) all yield ``None`` rather than ``inf``/``nan``.
    """
    if done <= 0 or elapsed <= 0.0:
        return None
    rate = done / elapsed
    # Subnormal inputs can underflow the ratio to exactly 0.0 (or
    # overflow to inf); both are as unusable as a degenerate input.
    if rate <= 0.0 or not math.isfinite(rate):
        return None
    return rate


def eta_seconds(done: float, total: float,
                elapsed: float) -> Optional[float]:
    """Estimated seconds to completion, or ``None`` when unknowable.

    Defined only once at least one cell finished in measurable time;
    a finished (or over-complete) sweep reports 0.0.  Like
    :func:`throughput`, degenerate timings return ``None`` instead of
    raising.
    """
    if done >= total:
        return 0.0
    rate = throughput(done, elapsed)
    if rate is None or rate <= 0.0:
        return None
    return (total - done) / rate


def normalize_events(events: Sequence[dict]) -> List[dict]:
    """The order-normalized, wall-clock-free view of an event stream.

    Strips :data:`VOLATILE_FIELDS`, drops :data:`TRANSPORT_EVENTS`,
    and sorts the remainder canonically — two runs of the same sweep
    (serial vs parallel, hot vs cold host) normalize to the same list.
    """
    kept = []
    for event in events:
        if event.get("event") in TRANSPORT_EVENTS:
            continue
        kept.append({key: value for key, value in event.items()
                     if key not in VOLATILE_FIELDS})
    return sorted(kept, key=lambda ev: json.dumps(ev, sort_keys=True,
                                                  default=str))


@dataclass
class CellTelemetry:
    """What the monitor learned about one cell of one sweep.

    *cell* is the sweep's own cell description (a
    :class:`~repro.analysis.parallel.SweepCell`), kept by reference:
    the receipt reads the cell's identity from it.  *key* is
    ``str(cell.key)``, the name events and receipts give the cell; the
    other fields are its outcome.
    """

    cell: Any
    key: str
    seconds: float = 0.0
    cached: bool = False
    stored: bool = False
    retries: int = 0
    ok: Optional[bool] = None


@dataclass
class SweepTelemetry:
    """One sweep observed by a monitor (a monitor may observe many)."""

    label: str
    jobs: int
    chunksize: int
    cells: List[CellTelemetry] = field(default_factory=list)
    started_at: float = 0.0
    seconds: float = 0.0
    finished: bool = False

    @property
    def done(self) -> int:
        return sum(1 for cell in self.cells if cell.ok is not None)

    @property
    def completed(self) -> int:
        return sum(1 for cell in self.cells if cell.ok)

    @property
    def failed(self) -> int:
        return sum(1 for cell in self.cells if cell.ok is False)

    @property
    def cached(self) -> int:
        return sum(1 for cell in self.cells if cell.cached)

    @property
    def stored(self) -> int:
        return sum(1 for cell in self.cells if cell.stored)

    @property
    def simulated(self) -> int:
        """Cells that actually ran the simulator (not cache hits)."""
        return sum(1 for cell in self.cells
                   if cell.ok is not None and not cell.cached)


class _TelemetryWriter:
    """JSONL event sink with the crash-flush contract.

    Telemetry is low-rate (a handful of events per cell, not per
    cycle), so every event is written *and flushed* immediately — an
    interrupted sweep leaves every emitted event on disk.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle: Optional[IO[str]] = open(path, "w", encoding="utf-8")
        self._handle.write(json.dumps({"schema": TELEMETRY_SCHEMA}) + "\n")
        self._handle.flush()
        self.written = 0

    def write(self, event: dict) -> None:
        if self._handle is None:
            return
        self._handle.write(json.dumps(event, sort_keys=True, default=str)
                           + "\n")
        self._handle.flush()
        self.written += 1

    def flush(self) -> None:
        if self._handle is not None:
            self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class SweepMonitor:
    """Receives sweep run events; renders progress; remembers enough
    for a :class:`~repro.analysis.provenance.RunReceipt`.

    Args:
        progress: stream live progress lines (cells done, cells/s,
            ETA).  On a TTY the line is redrawn in place; otherwise one
            line per update.
        stream: where progress goes (default ``sys.stderr``).
        jsonl_path: mirror every event to this JSONL file (flushed per
            event; see :class:`_TelemetryWriter`).
        clock: injectable monotonic clock (tests freeze it).
    """

    def __init__(self, progress: bool = False,
                 stream: Optional[IO[str]] = None,
                 jsonl_path: Optional[str] = None,
                 clock=time.perf_counter) -> None:
        self.progress = progress
        self.stream = stream if stream is not None else sys.stderr
        self.events: List[dict] = []
        self.sweeps: List[SweepTelemetry] = []
        self._clock = clock
        self._origin = clock()
        self._writer = (_TelemetryWriter(jsonl_path)
                        if jsonl_path else None)
        self._seq = 0
        try:
            self._tty = bool(getattr(self.stream, "isatty",
                                     lambda: False)())
        except (OSError, ValueError):
            # A dead/closed stream: progress is best-effort, never fatal.
            self._tty = False
            self.progress = False
        self._line_len = 0

    # ------------------------------------------------------------ events --

    def emit(self, name: str, **payload) -> dict:
        """Record one typed event (envelope: ``event``/``seq``/``t``)."""
        self._seq += 1
        event = {"event": name, "seq": self._seq,
                 "t": round(self._clock() - self._origin, 6), **payload}
        self.events.append(event)
        if self._writer is not None:
            self._writer.write(event)
        return event

    @property
    def sweep(self) -> Optional[SweepTelemetry]:
        """The most recently started sweep, if any."""
        return self.sweeps[-1] if self.sweeps else None

    def sweep_start(self, label: str, cells: Sequence, jobs: int = 1,
                    chunksize: int = 1) -> SweepTelemetry:
        record = SweepTelemetry(
            label=label, jobs=jobs, chunksize=chunksize,
            cells=[CellTelemetry(cell, str(cell.key)) for cell in cells],
            started_at=self._clock())
        self.sweeps.append(record)
        self.emit("sweep_start", label=label, cells=len(record.cells),
                  jobs=jobs, chunksize=chunksize)
        self._show_progress(record)
        return record

    def _cell(self, index: int) -> CellTelemetry:
        return self.sweeps[-1].cells[index]

    def cell_start(self, index: int) -> None:
        cell = self._cell(index)
        self.emit("cell_start", label=self.sweeps[-1].label, key=cell.key)

    def cell_retry(self, index: int, attempt: int, error: str) -> None:
        cell = self._cell(index)
        cell.retries += 1
        self.emit("cell_retry", label=self.sweeps[-1].label, key=cell.key,
                  attempt=attempt, error=error)

    def cell_done(self, index: int, seconds: float = 0.0, ok: bool = True,
                  cached: bool = False, stored: bool = False) -> None:
        record = self.sweeps[-1]
        cell = self._cell(index)
        cell.seconds = seconds
        cell.ok = bool(ok)
        cell.cached = cached
        if stored and not cell.stored:
            cell.stored = True
            self.emit("cache_store", key=cell.key)
        self.emit("cell_done", label=record.label, key=cell.key,
                  ok=bool(ok), cached=cached,
                  seconds=round(seconds, 6))
        self._show_progress(record)

    def worker_up(self, jobs: int) -> None:
        self.emit("worker_up", jobs=jobs)

    def worker_down(self) -> None:
        self.emit("worker_down")

    def sweep_done(self) -> Optional[SweepTelemetry]:
        """Close out the current sweep (idempotent; crash-safe).

        Called from the runner's ``finally`` block, so an interrupted
        sweep still gets its terminal event — with whatever counts the
        cells reached — and the JSONL sink is flushed.
        """
        record = self.sweep
        if record is None or record.finished:
            return record
        record.finished = True
        record.seconds = max(0.0, self._clock() - record.started_at)
        self.emit("sweep_done", label=record.label,
                  completed=record.completed, failed=record.failed,
                  cached=record.cached,
                  seconds=round(record.seconds, 6))
        self._finish_progress(record)
        self.flush()
        return record

    # ---------------------------------------------------------- progress --

    def _show_progress(self, record: SweepTelemetry) -> None:
        if not self.progress:
            return
        elapsed = max(0.0, self._clock() - record.started_at)
        total = len(record.cells)
        done = record.done
        parts = [f"[{record.label}] {done}/{total} cells"]
        if record.cached:
            parts.append(f"{record.cached} cached")
        rate = throughput(done, elapsed)
        if rate is not None:
            parts.append(f"{rate:.1f} cell/s")
        eta = eta_seconds(done, total, elapsed)
        if eta is not None:
            parts.append(f"eta {eta:.1f}s")
        self._write_line(" | ".join(parts), final=False)

    def _finish_progress(self, record: SweepTelemetry) -> None:
        if not self.progress:
            return
        line = (f"[{record.label}] done: {len(record.cells)} cells "
                f"({record.completed} ok, {record.failed} failed, "
                f"{record.cached} cached) in {record.seconds:.2f}s")
        self._write_line(line, final=True)

    def _write_line(self, line: str, final: bool) -> None:
        try:
            if self._tty:
                pad = " " * max(0, self._line_len - len(line))
                self.stream.write("\r" + line + pad)
                if final:
                    self.stream.write("\n")
                self._line_len = len(line)
            else:
                self.stream.write(line + "\n")
            self.stream.flush()
        except (OSError, ValueError):
            self.progress = False  # dead stream: stop trying

    # ----------------------------------------------------------- plumbing --

    def flush(self) -> None:
        if self._writer is not None:
            self._writer.flush()

    def close(self) -> None:
        """Flush and release the JSONL sink (idempotent)."""
        if self._writer is not None:
            self._writer.close()

    def __enter__(self) -> "SweepMonitor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ------------------------------------------------------- ambient wiring --

_ACTIVE: List[Optional[SweepMonitor]] = []


@contextmanager
def use_monitor(monitor: Optional[SweepMonitor]):
    """Make *monitor* the ambient sweep monitor inside the block.

    ``use_monitor(None)`` explicitly silences telemetry in the block
    (shadowing any outer monitor) — benchmarks use this around timed
    baseline runs.
    """
    _ACTIVE.append(monitor)
    try:
        yield monitor
    finally:
        _ACTIVE.pop()


def active_monitor() -> Optional[SweepMonitor]:
    """The innermost :func:`use_monitor` monitor, if any."""
    return _ACTIVE[-1] if _ACTIVE else None
