"""Sweep telemetry: monitor events, progress, JSONL crash-flush, and
the never-divide-by-zero throughput/ETA helpers (property-tested).
"""

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.parallel import SweepCell
from repro.obs.schema import TraceSchemaError, validate_telemetry_jsonl
from repro.obs.telemetry import (TELEMETRY_EVENTS, TELEMETRY_SCHEMA,
                                 SweepMonitor, active_monitor, eta_seconds,
                                 normalize_events, throughput, use_monitor)

CELLS = [SweepCell(key="a", workload="rawcaudio", n_clusters=2,
                   predictor="stride", steering="vpb", length=500),
         SweepCell(key="b", workload="gsmdec", n_clusters=4, length=500)]

finite = st.floats(allow_nan=False, allow_infinity=False,
                   min_value=-1e12, max_value=1e12)
nonneg_int = st.integers(min_value=0, max_value=10**9)


class TestRateHelpers:
    @settings(max_examples=200)
    @given(done=finite, elapsed=finite)
    def test_throughput_never_raises_or_divides_by_zero(self, done,
                                                        elapsed):
        rate = throughput(done, elapsed)
        if rate is not None:
            assert rate > 0.0
            assert rate == done / elapsed

    @settings(max_examples=200)
    @given(done=finite, total=finite, elapsed=finite)
    def test_eta_never_raises_or_divides_by_zero(self, done, total,
                                                 elapsed):
        eta = eta_seconds(done, total, elapsed)
        if eta is not None:
            assert eta >= 0.0

    @settings(max_examples=100)
    @given(done=nonneg_int, total=nonneg_int)
    def test_eta_zero_elapsed_is_safe(self, done, total):
        # The first progress render fires before any clock tick.
        eta = eta_seconds(done, total, 0.0)
        assert eta is None or eta == 0.0

    def test_degenerate_inputs_yield_none(self):
        assert throughput(0, 10.0) is None
        assert throughput(5, 0.0) is None
        assert throughput(5, -1.0) is None
        assert eta_seconds(0, 10, 5.0) is None

    def test_finished_sweep_eta_is_zero(self):
        assert eta_seconds(10, 10, 3.0) == 0.0
        assert eta_seconds(11, 10, 3.0) == 0.0

    def test_live_values(self):
        assert throughput(6, 3.0) == 2.0
        assert eta_seconds(6, 12, 3.0) == 3.0


class TestSweepMonitor:
    def test_event_stream_shape(self):
        monitor = SweepMonitor()
        monitor.sweep_start("unit", CELLS, jobs=1, chunksize=1)
        monitor.cell_start(0)
        monitor.cell_done(0, seconds=0.5, ok=True)
        monitor.cell_start(1)
        monitor.cell_retry(1, attempt=1, error="DeadlockError")
        monitor.cell_done(1, seconds=0.7, ok=False)
        record = monitor.sweep_done()
        names = [event["event"] for event in monitor.events]
        assert names == ["sweep_start", "cell_start", "cell_done",
                         "cell_start", "cell_retry", "cell_done",
                         "sweep_done"]
        # Envelope: strictly increasing seq, numeric t, declared fields.
        seqs = [event["seq"] for event in monitor.events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        for event in monitor.events:
            missing = set(TELEMETRY_EVENTS[event["event"]]) - set(event)
            assert not missing, (event["event"], missing)
        assert record.completed == 1
        assert record.failed == 1
        assert record.cells[1].retries == 1

    def test_stored_cell_emits_cache_store_once(self):
        monitor = SweepMonitor()
        monitor.sweep_start("unit", CELLS)
        monitor.cell_done(0, ok=True, stored=True)
        monitor.cell_done(0, ok=True, stored=True)  # idempotent
        stores = [event for event in monitor.events
                  if event["event"] == "cache_store"]
        assert len(stores) == 1
        assert monitor.sweep.stored == 1

    def test_sweep_done_is_idempotent(self):
        monitor = SweepMonitor()
        monitor.sweep_start("unit", CELLS)
        first = monitor.sweep_done()
        assert monitor.sweep_done() is first
        assert sum(1 for event in monitor.events
                   if event["event"] == "sweep_done") == 1

    def test_cached_and_simulated_counters(self):
        monitor = SweepMonitor()
        monitor.sweep_start("unit", CELLS)
        monitor.cell_done(0, ok=True, cached=True)
        monitor.cell_done(1, ok=True)
        record = monitor.sweep_done()
        assert record.cached == 1
        assert record.simulated == 1
        assert record.done == 2

    def test_progress_lines_on_plain_stream(self):
        stream = io.StringIO()
        monitor = SweepMonitor(progress=True, stream=stream)
        monitor.sweep_start("unit", CELLS)
        monitor.cell_done(0, ok=True)
        monitor.sweep_done()
        out = stream.getvalue()
        assert "[unit]" in out
        assert "1/2 cells" in out
        assert "done: 2 cells" in out

    def test_dead_progress_stream_disables_progress(self):
        stream = io.StringIO()
        stream.close()
        monitor = SweepMonitor(progress=True, stream=stream)
        monitor.sweep_start("unit", CELLS)  # must not raise
        assert monitor.progress is False

    def test_ambient_wiring_nests_and_restores(self):
        assert active_monitor() is None
        outer, inner = SweepMonitor(), SweepMonitor()
        with use_monitor(outer):
            assert active_monitor() is outer
            with use_monitor(inner):
                assert active_monitor() is inner
            with use_monitor(None):  # explicit silence
                assert active_monitor() is None
            assert active_monitor() is outer
        assert active_monitor() is None


class TestNormalization:
    def _events(self, shuffled=False):
        events = [
            {"event": "sweep_start", "seq": 1, "t": 0.0, "label": "s",
             "cells": 2, "jobs": 1, "chunksize": 1},
            {"event": "cell_done", "seq": 2, "t": 0.5, "label": "s",
             "key": "a", "ok": True, "cached": False, "seconds": 0.5},
            {"event": "worker_up", "seq": 3, "t": 0.6, "jobs": 2},
            {"event": "cell_done", "seq": 4, "t": 0.9, "label": "s",
             "key": "b", "ok": True, "cached": False, "seconds": 0.4},
            {"event": "sweep_done", "seq": 5, "t": 1.0, "label": "s",
             "completed": 2, "failed": 0, "cached": 0, "seconds": 1.0},
        ]
        if shuffled:
            events = [events[3], events[0], events[4], events[1]]
            events.append({"event": "worker_down", "seq": 9, "t": 2.0})
            # Different wall-clock/topology, same sweep outcome.
            events = [dict(event, t=event["t"] + 7.0, jobs=4,
                           seq=event["seq"] + 10) for event in events]
        return events

    def test_order_and_volatile_fields_normalize_away(self):
        assert (normalize_events(self._events())
                == normalize_events(self._events(shuffled=True)))

    def test_transport_events_dropped(self):
        names = {event["event"]
                 for event in normalize_events(self._events())}
        assert "worker_up" not in names and "worker_down" not in names
        assert "sweep_done" in names


class TestJsonlCrashFlush:
    def test_events_on_disk_without_close(self, tmp_path):
        # The crash contract: every emitted event is flushed, so a
        # monitor that never gets a clean close still leaves a valid
        # (partial) log behind.
        path = tmp_path / "telemetry.jsonl"
        monitor = SweepMonitor(jsonl_path=str(path))
        monitor.sweep_start("crash", CELLS)
        monitor.cell_start(0)
        lines = path.read_text().splitlines()
        assert json.loads(lines[0]) == {"schema": TELEMETRY_SCHEMA}
        assert len(lines) == 3  # header + sweep_start + cell_start
        assert validate_telemetry_jsonl(str(path)) == 2

    def test_interrupted_sweep_still_flushes_terminal_event(self,
                                                            tmp_path):
        path = tmp_path / "telemetry.jsonl"
        monitor = SweepMonitor(jsonl_path=str(path))
        with pytest.raises(KeyboardInterrupt):
            try:
                monitor.sweep_start("interrupted", CELLS)
                monitor.cell_start(0)
                raise KeyboardInterrupt
            finally:
                # The runner's finally block does exactly this.
                monitor.sweep_done()
                monitor.close()
        events = [json.loads(line)
                  for line in path.read_text().splitlines()[1:]]
        assert events[-1]["event"] == "sweep_done"
        assert validate_telemetry_jsonl(str(path)) == 3

    def test_close_is_idempotent(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        with SweepMonitor(jsonl_path=str(path)) as monitor:
            monitor.sweep_start("unit", CELLS)
            monitor.sweep_done()
            monitor.close()
        monitor.close()
        assert validate_telemetry_jsonl(str(path)) == 2

    def test_validator_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"schema": TELEMETRY_SCHEMA}) + "\n"
                        + json.dumps({"event": "not-an-event", "seq": 1,
                                      "t": 0.0}) + "\n")
        with pytest.raises(TraceSchemaError, match="unknown telemetry"):
            validate_telemetry_jsonl(str(path))

    def test_validator_rejects_nonmonotonic_seq(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        event = {"event": "worker_down", "seq": 1, "t": 0.0}
        path.write_text(json.dumps({"schema": TELEMETRY_SCHEMA}) + "\n"
                        + json.dumps(event) + "\n"
                        + json.dumps(event) + "\n")
        with pytest.raises(TraceSchemaError, match="strictly"):
            validate_telemetry_jsonl(str(path))
