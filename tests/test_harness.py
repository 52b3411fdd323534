"""Unit coverage for ``benchmarks/harness.py``, the gate scripts' one
timing, checking and recording module.

Timing is exercised with fake callables (and, where seconds matter, a
fake clock), so no test here runs a simulation.  The full gates run
through ``make obs-check`` / ``telemetry-check`` / ``sample-check`` /
``bench-smoke`` / ``bench-wallclock`` and their tier-1 wrappers.
"""

import dataclasses
import gc
import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
from harness import (Check, Timing, interleaved, provenance,  # noqa: E402
                     rate_of, remeasure, report, same_results, speedup_of)


def test_speedup_is_ratio():
    assert speedup_of(6.0, 3.0) == 2.0


def test_provenance_fields():
    import platform
    import re

    info = provenance()
    assert set(info) == {"commit", "timestamp_utc", "python"}
    assert info["python"] == platform.python_version()
    # ISO-8601 UTC, second resolution.
    assert re.fullmatch(r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z",
                        info["timestamp_utc"])
    # In this repo's checkout the commit is a short hash, possibly
    # marked dirty; outside a checkout it may legitimately be None.
    if info["commit"] is not None:
        assert re.fullmatch(r"[0-9a-f]{7,40}(-dirty)?", info["commit"])


def _record_at(monkeypatch, tmp_path, commit):
    path = tmp_path / "BENCH_sweep.json"
    monkeypatch.setattr(harness, "RESULT_PATH", path)
    monkeypatch.setattr(harness, "provenance", lambda: {
        "commit": commit, "timestamp_utc": "2026-01-01T00:00:00Z",
        "python": "3.11.0"})
    harness.record({"benchmark": "sweep_wallclock", "serial_seconds": 1.5})
    return path


def test_record_refuses_a_dirty_tree(monkeypatch, tmp_path, capsys):
    path = _record_at(monkeypatch, tmp_path, "abc1234-dirty")
    assert not path.exists()
    assert capsys.readouterr().out == (
        "not recorded: uncommitted changes (abc1234-dirty)\n")


def test_record_appends_from_a_clean_tree(monkeypatch, tmp_path, capsys):
    import json

    path = _record_at(monkeypatch, tmp_path, "abc1234")
    [entry] = json.loads(path.read_text())
    assert entry["commit"] == "abc1234"
    assert entry["serial_seconds"] == 1.5
    assert "recorded in" in capsys.readouterr().out


def test_zero_parallel_time_yields_no_speedup():
    # A sub-resolution timer reading must not be reported as 0.0x
    # (which would read as "parallel infinitely slower").
    assert speedup_of(6.0, 0.0) is None
    assert speedup_of(6.0, -1.0) is None


def test_rate_guards_zero_duration():
    assert rate_of(1000, 2.0) == 500.0
    assert rate_of(1000, 0.0) is None


# ------------------------------------------------------------- the loop --

def test_run_order_alternates_which_variant_goes_first():
    order = []
    timings = interleaved({"a": lambda: order.append("a"),
                           "b": lambda: order.append("b")}, 3)
    assert order == ["a", "b", "b", "a", "a", "b"]
    assert [len(timing.samples) for timing in timings.values()] == [3, 3]


def test_three_variants_rotate_the_first_run():
    order = []
    interleaved({name: (lambda name=name: order.append(name))
                 for name in "abc"}, 3)
    assert order[0::3] == ["a", "b", "c"]


def test_setup_and_collection_run_before_every_timed_call(monkeypatch):
    events = []
    monkeypatch.setattr(harness.gc, "collect",
                        lambda: events.append("collect"))
    interleaved({"a": lambda: events.append("a"),
                 "b": lambda: events.append("b")}, 2,
                setup=lambda: events.append("setup"))
    assert events == ["setup", "collect", "a", "setup", "collect", "b",
                      "setup", "collect", "b", "setup", "collect", "a"]


def test_collector_is_off_inside_a_timed_call_and_back_on_after():
    seen = []
    interleaved({"probe": lambda: seen.append(gc.isenabled())}, 2)
    assert seen == [False, False]
    assert gc.isenabled()


def test_collector_is_back_on_when_the_timed_call_raises():
    seen = []

    def boom():
        seen.append(gc.isenabled())
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        interleaved({"boom": boom}, 1)
    assert seen == [False]
    assert gc.isenabled()


def test_min_and_quartiles_from_a_fake_clock(monkeypatch):
    clock = [0.0]
    durations = iter([3.0, 1.0, 2.0, 5.0, 4.0])

    def run():
        clock[0] += next(durations)
        return clock[0]

    monkeypatch.setattr(harness.time, "perf_counter", lambda: clock[0])
    timing = interleaved({"run": run}, 5)["run"]
    assert timing.samples == (3.0, 1.0, 2.0, 5.0, 4.0)
    assert timing.min == 1.0
    assert timing.quartiles == (2.0, 3.0, 4.0)
    assert timing.result == 4.0  # what the fastest (second) call returned


def test_quartiles_of_small_samples():
    assert Timing((0.5,)).quartiles == (0.5, 0.5, 0.5)
    assert Timing((1.0, 2.0)).quartiles == (1.25, 1.5, 1.75)
    assert str(Timing((0.5,))) == "0.500s (1 run)"
    assert str(Timing((3.0, 1.0, 2.0, 5.0, 4.0))) == \
        "1.000s min of 5 (quartiles 2.000/3.000/4.000s)"


# ------------------------------------------------------- the re-measure --

def _measure(readings):
    calls = []
    readings = iter(readings)

    def measure(repeats):
        calls.append(repeats)
        return next(readings)

    return measure, calls


def test_over_bar_reading_is_remeasured_once_and_the_better_stands():
    measure, calls = _measure([0.15, 0.08])
    assert remeasure(measure, 5, lambda r: r < 0.10, lambda r: r) == 0.08
    assert calls == [5, 10]

    measure, calls = _measure([0.15, 0.20])
    assert remeasure(measure, 5, lambda r: r < 0.10, lambda r: r) == 0.15
    assert calls == [5, 10]


def test_reading_within_its_bar_is_not_remeasured():
    measure, calls = _measure([0.05])
    assert remeasure(measure, 5, lambda r: r < 0.10, lambda r: r) == 0.05
    assert calls == [5]


def test_a_reading_taken_elsewhere_is_remeasured_at_doubled_repeats():
    measure, calls = _measure([0.9])
    assert remeasure(measure, 1, lambda r: r < 0.5, lambda r: r,
                     reading=1.2) == 0.9
    assert calls == [2]


def test_overhead_check_remeasures_with_doubled_repeats(monkeypatch):
    clock = [0.0]
    calls = {"base": 0, "variant": 0}

    def run(name, seconds):
        def call():
            calls[name] += 1
            clock[0] += seconds(calls[name])
        return call

    monkeypatch.setattr(harness.time, "perf_counter", lambda: clock[0])
    # The variant reads +20% over its first 3 calls, +5% afterwards.
    check = harness.overhead_check(
        "variant overhead < 10%",
        {"base": run("base", lambda n: 1.0),
         "variant": run("variant", lambda n: 1.2 if n <= 3 else 1.05)},
        3, 0.10)
    assert calls == {"base": 9, "variant": 9}
    assert check.ok and check.detail.startswith("+5.00%")


def test_report_prints_every_check_and_returns_the_exit_code(capsys):
    assert report("gate", [Check("a", True, "fine"), Check("b", True)]) == 0
    assert report("gate", [Check("a", True), Check("b", False, "bad")]) == 1
    out = capsys.readouterr().out
    assert "ok   a  fine" in out and "FAIL b  bad" in out
    assert "gate: all 2 checks passed" in out
    assert "gate: 1 of 2 checks failed" in out


@dataclasses.dataclass
class _Stats:
    cycles: int
    hidden: int


class _Result:
    def __init__(self, cycles, hidden):
        self.stats = _Stats(cycles, hidden)

    def to_dict(self):
        return {"cycles": self.stats.cycles}


def test_same_results_compares_every_stats_field():
    assert same_results({"k": _Result(5, 1)}, {"k": _Result(5, 1)})
    # A field to_dict() does not export still counts.
    assert not same_results({"k": _Result(5, 1)}, {"k": _Result(5, 2)})
    assert not same_results({"k": _Result(5, 1)}, {"j": _Result(5, 1)})


# ---------------------------------------------------- bad environment --

def _no_sweeps(monkeypatch, *modules):
    def refuse(*args, **kwargs):
        raise AssertionError("a sweep ran despite a bad environment value")

    for module in modules:
        if hasattr(module, "run_cells"):
            monkeypatch.setattr(module, "run_cells", refuse)


@pytest.mark.parametrize("variable, value, script", [
    ("REPRO_JOBS", "many", "bench_smoke"),
    ("REPRO_JOBS", "many", "bench_wallclock"),
    ("REPRO_TRACE_LEN", "banana", "bench_wallclock"),
])
def test_bad_environment_exits_2_without_a_sweep(monkeypatch, capsys,
                                                 variable, value, script):
    import importlib

    module = importlib.import_module(script)
    _no_sweeps(monkeypatch, harness, module)
    monkeypatch.setenv(variable, value)
    args = ([],) if script == "bench_wallclock" else ()
    assert module.main(*args) == 2
    assert capsys.readouterr().err.startswith(f"error: {variable}")
