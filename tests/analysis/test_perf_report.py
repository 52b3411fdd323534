"""Perf-regression dashboard: normalized history writes, duplicate
healing, same-shape regression detection, markdown rendering.
"""

import json

import pytest

from repro.analysis.perf_report import (BENCH_SCHEMA, append_entry,
                                        dedup_history, entry_identity,
                                        find_regressions, load_history,
                                        normalize_entry, render_dashboard,
                                        shape_key)
from repro.errors import ConfigError


def _entry(rate, benchmark="smoke_guard", commit="abc1234",
           timestamp="2026-08-08T00:00:00Z", **extra):
    entry = {"benchmark": benchmark, "commit": commit,
             "timestamp_utc": timestamp, "cpu_count": 2, "cells": 16,
             "trace_length": 1_500, "serial_insts_per_second": rate}
    entry.update(extra)
    return entry


class TestHistoryIO:
    def test_load_missing_file_is_empty(self, tmp_path):
        assert load_history(tmp_path / "nope.json") == []

    def test_load_tolerates_garbage_and_object_form(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="bench.json"):
            load_history(path)
        path.write_text(json.dumps({"benchmark": "solo"}))
        assert load_history(path) == [{"benchmark": "solo"}]
        path.write_text(json.dumps([{"a": 1}, "stray-string", {"b": 2}]))
        assert load_history(path) == [{"a": 1}, {"b": 2}]

    def test_normalize_tags_schema_and_sorts_keys(self):
        normalized = normalize_entry({"z": 1, "a": 2})
        # Normalization tags the schema, heals a measurement shape onto
        # legacy entries, and emits keys in stable sorted order.
        assert list(normalized) == ["a", "schema", "shape", "z"]
        assert normalized["schema"] == BENCH_SCHEMA
        assert normalized["shape"] == "serial"
        # An already-tagged (or pre-schema v1) entry keeps its tag, and
        # an explicit shape is never overwritten.
        assert normalize_entry({"schema": "v1"})["schema"] == "v1"
        assert normalize_entry({"shape": "sampled"})["shape"] == "sampled"

    def test_dedup_ignores_timestamp_and_schema_only(self):
        first = _entry(100_000.0)
        rerun = _entry(100_000.0, timestamp="2026-08-08T01:00:00Z")
        changed = _entry(90_000.0, timestamp="2026-08-08T02:00:00Z")
        assert entry_identity(first) == entry_identity(rerun)
        assert dedup_history([first, rerun, changed]) == [first, changed]

    def test_append_entry_heals_the_file(self, tmp_path):
        path = tmp_path / "bench.json"
        # A legacy file with a duplicate pair and unsorted keys.
        path.write_text(json.dumps([_entry(100_000.0),
                                    _entry(100_000.0,
                                           timestamp="later")]))
        history = append_entry(path, _entry(110_000.0, commit="def5678"))
        assert len(history) == 2  # duplicate dropped, new entry kept
        on_disk = json.loads(path.read_text())
        assert on_disk == history
        for entry in on_disk:
            assert entry["schema"] == BENCH_SCHEMA
            assert list(entry) == sorted(entry)

    def test_append_to_truncated_history_raises_and_keeps_its_bytes(
            self, tmp_path):
        path = tmp_path / "bench.json"
        full = json.dumps([_entry(100_000.0), _entry(110_000.0)], indent=2)
        path.write_text(full[:-40])  # an interrupted write
        before = path.read_bytes()
        with pytest.raises(ConfigError, match="bench.json"):
            append_entry(path, _entry(120_000.0))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["bench.json"]


class TestRegressions:
    def test_25pct_drop_is_flagged(self):
        history = [_entry(100_000.0, commit="good000"),
                   _entry(75_000.0, commit="bad0000")]
        flags = find_regressions(history, threshold=0.20)
        assert len(flags) == 1
        flag = flags[0]
        assert flag["commit"] == "bad0000"
        assert flag["best_commit"] == "good000"
        assert flag["drop"] == 0.25
        assert flag["index"] == 1

    def test_within_threshold_not_flagged(self):
        history = [_entry(100_000.0), _entry(85_000.0, commit="meh")]
        assert find_regressions(history, threshold=0.20) == []

    def test_shapes_are_not_cross_compared(self):
        history = [_entry(100_000.0),
                   _entry(50_000.0, commit="other-shape", cells=30)]
        assert find_regressions(history, threshold=0.20) == []
        assert shape_key(history[0]) != shape_key(history[1])

    def test_only_earlier_entries_form_the_baseline(self):
        # A slow entry *before* the fast one is history, not a
        # regression; flagging it would punish every improvement.
        history = [_entry(75_000.0, commit="old"),
                   _entry(100_000.0, commit="new")]
        assert find_regressions(history, threshold=0.20) == []

    def test_unmeasurable_rates_are_skipped(self):
        history = [_entry(100_000.0), _entry(None), _entry(0.0),
                   _entry(75_000.0, commit="bad0000")]
        flags = find_regressions(history, threshold=0.20)
        assert [flag["commit"] for flag in flags] == ["bad0000"]


class TestDashboard:
    def test_sections_render(self):
        history = [_entry(100_000.0,
                          parallel_insts_per_second=180_000.0,
                          speedup=1.8,
                          slowest_cells=[{"workload": "cjpeg",
                                          "clusters": 4,
                                          "seconds": 1.25}],
                          cache={"cold_seconds": 8.0,
                                 "warm_seconds": 0.5,
                                 "warm_speedup": 16.0,
                                 "warm_hits": 16},
                          tracer_overhead={"ring_overhead": 0.05,
                                           "jsonl_overhead": 0.4})]
        receipt = {"label": "figure2", "commit": "abc1234",
                   "counts": {"cells": 6, "completed": 6, "failed": 0},
                   "cache": {"hits": 0, "misses": 6, "stores": 6},
                   "run": {"total_seconds": 2.5}}
        text = render_dashboard(history, receipts=[receipt])
        assert "# Sweep performance dashboard" in text
        assert "None detected." in text
        assert "## Throughput trajectory" in text
        assert "100,000" in text
        assert "## Slowest cells" in text and "cjpeg" in text
        assert "## Result-cache cold → warm" in text
        assert "## Tracer overhead" in text
        assert "## Run receipts" in text and "figure2" in text

    def test_regression_row_rendered(self):
        history = [_entry(100_000.0, commit="good000"),
                   _entry(75_000.0, commit="bad0000")]
        text = render_dashboard(history)
        assert "bad0000" in text
        assert "25.0%" in text

    def test_empty_history_renders(self):
        text = render_dashboard([])
        assert "No benchmark history" in text
