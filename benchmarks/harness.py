"""The one harness the gate scripts time, check and record with:
:func:`interleaved` is the only timing loop, :func:`remeasure` the one
re-measure policy, :func:`report` the one check printer and
:func:`record` the one ``BENCH_sweep.json`` writer.
"""

from __future__ import annotations

import dataclasses
import datetime
import functools
import gc
import json
import os
import pathlib
import platform
import statistics
import sys
import tempfile
import time
from typing import (Any, Callable, Dict, Mapping, NamedTuple, Optional,
                    Sequence, Tuple)

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.analysis.cache import ResultCache
from repro.analysis.parallel import (SweepCell, WorkerPool, resolve_jobs,
                                     run_cells)
from repro.analysis.perf_report import append_entry
from repro.analysis.provenance import git_commit
from repro.cli import EXIT_USAGE_ERROR
from repro.core import simulate
from repro.errors import ConfigError
from repro.isa.executor import FunctionalExecutor
from repro.obs.schema import TraceSchemaError
from repro.workloads import build_workload, clear_trace_cache, \
    workload_names

#: The performance trajectory every recorded entry is appended to.
RESULT_PATH = ROOT / "BENCH_sweep.json"


@dataclasses.dataclass(frozen=True)
class Timing:
    """One variant's seconds per timed call, and what the fastest call
    returned."""

    samples: Tuple[float, ...]
    result: Any = None

    @property
    def min(self) -> float:
        """The estimator every bar uses: timing noise only adds time."""
        return min(self.samples)

    @property
    def quartiles(self) -> Tuple[float, float, float]:
        if len(self.samples) == 1:
            return (self.samples[0],) * 3
        q1, q2, q3 = statistics.quantiles(self.samples, n=4,
                                          method="inclusive")
        return q1, q2, q3

    def __str__(self) -> str:
        if len(self.samples) == 1:
            return f"{self.min:.3f}s (1 run)"
        q1, q2, q3 = self.quartiles
        return (f"{self.min:.3f}s min of {len(self.samples)} "
                f"(quartiles {q1:.3f}/{q2:.3f}/{q3:.3f}s)")


def interleaved(variants: Mapping[str, Callable[[], Any]], repeats: int,
                setup: Optional[Callable[[], Any]] = None
                ) -> Dict[str, Timing]:
    """Time every variant *repeats* times, rotating which goes first so
    host drift hits them alike; *setup* runs before each timed window.

    The collector runs before each window and is paused inside it: a
    variant that allocates more (a tracer, a monitor) would otherwise
    pay whole-heap scans whose cost belongs to the host's heap.
    """
    names = list(variants)
    samples: Dict[str, list] = {name: [] for name in names}
    fastest: Dict[str, Any] = {}
    for round_ in range(repeats):
        first = round_ % len(names)
        for name in names[first:] + names[:first]:
            if setup is not None:
                setup()
            gc.collect()
            gc.disable()
            try:
                start = time.perf_counter()
                result = variants[name]()
                seconds = time.perf_counter() - start
            finally:
                gc.enable()
            if not samples[name] or seconds < min(samples[name]):
                fastest[name] = result
            samples[name].append(seconds)
    return {name: Timing(tuple(samples[name]), fastest[name])
            for name in names}


def remeasure(measure: Callable[[int], Any], repeats: int,
              within: Callable[[Any], bool], cost: Callable[[Any], float],
              reading: Any = None) -> Any:
    """``measure(repeats)`` (or the *reading* already taken), measured
    once more with doubled repeats if it is not *within* its bar; the
    lower-*cost* reading stands.  A burst of host interference can
    straddle one measurement; a genuine regression fails both.
    """
    if reading is None:
        reading = measure(repeats)
    if within(reading):
        return reading
    return min(reading, measure(2 * repeats), key=cost)


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


def overhead_check(name: str, variants: Mapping[str, Callable[[], Any]],
                   repeats: int, budget: float) -> Check:
    """Whether the second variant's min wall-clock exceeds the first's
    by less than *budget*."""
    base, variant = variants

    def overhead(timings) -> float:
        return timings[variant].min / timings[base].min - 1.0

    timings = remeasure(lambda n: interleaved(variants, n), repeats,
                        lambda t: overhead(t) < budget, overhead)
    return Check(name, overhead(timings) < budget,
                 f"{overhead(timings):+.2%} ({base} {timings[base]} -> "
                 f"{variant} {timings[variant]})")


def schema_check(name: str, validate, path, unit: str) -> Check:
    """*path* against one of the ``repro.obs.schema`` validators."""
    try:
        return Check(name, True, f"{validate(path)} {unit}")
    except TraceSchemaError as error:
        return Check(name, False, str(error))


def report(title: str, checks: Sequence[Check]) -> int:
    """Print one line per check; the exit code is 1 if any failed."""
    width = max(len(check.name) for check in checks)
    for check in checks:
        mark = "ok  " if check.ok else "FAIL"
        print(f"{mark} {check.name:<{width}}  {check.detail}".rstrip())
    failed = sum(not check.ok for check in checks)
    if failed:
        print(f"\n{title}: {failed} of {len(checks)} checks failed")
        return 1
    print(f"\n{title}: all {len(checks)} checks passed")
    return 0


def cli_errors(main: Callable[..., int]) -> Callable[..., int]:
    """*main*, printing a ConfigError as ``error: ...`` and returning 2."""
    @functools.wraps(main)
    def wrapped(*args, **kwargs) -> int:
        try:
            return main(*args, **kwargs)
        except ConfigError as error:
            print(f"error: {error}", file=sys.stderr)
            return EXIT_USAGE_ERROR
    return wrapped


def bench_jobs() -> int:
    """``REPRO_JOBS``, validated; all cores when it is unset."""
    return resolve_jobs(None if "REPRO_JOBS" in os.environ else 0)


def speedup_of(serial_s: float, parallel_s: float) -> Optional[float]:
    """Serial/parallel ratio, or ``None`` when it cannot be computed.

    A zero (or negative, after clock weirdness) parallel time means the
    run was too fast to measure; the old ``0.0`` sentinel read as
    "infinitely slower" in the trajectory, so the field is omitted
    instead (the BENCH schema treats a missing/``null`` speedup as
    "not measurable", see docs/PERFORMANCE.md).
    """
    if parallel_s <= 0.0 or serial_s < 0.0:
        return None
    return serial_s / parallel_s


def rate_of(insts: int, seconds: float) -> Optional[float]:
    """Instructions per second, or ``None`` for unmeasurable runs."""
    if seconds <= 0.0:
        return None
    return insts / seconds


def sweep_cells(configs, length: int,
                workloads: Optional[Sequence[str]] = None) -> list:
    """Every workload (default: the suite) under every ``(clusters,
    predictor, steering)`` config, keyed by those four."""
    return [SweepCell(key=(name, n, predictor, steering), workload=name,
                      n_clusters=n, predictor=predictor,
                      steering=steering, length=length)
            for name in (workloads or workload_names())
            for n, predictor, steering in configs]


def _full(result) -> dict:
    return {**result.to_dict(), "stats": dataclasses.asdict(result.stats)}


def same_results(a: Mapping, b: Mapping) -> bool:
    """Whether two ``{key: SimResult}`` maps agree on every key, every
    ``SimStats`` field and every exported metric."""
    return a.keys() == b.keys() and all(_full(a[key]) == _full(b[key])
                                        for key in a)


def sweep_timings(cells, jobs: int) -> dict:
    """The ``sweep_wallclock`` entry's sweep fields: one sweep timed
    once each serially, on a cold then a warm pool of *jobs* workers,
    and through a cold then a warm throwaway result cache, every run
    from an empty trace cache as a fresh campaign starts.
    """
    cell_seconds: Dict[Any, float] = {}

    def once(**kwargs) -> Timing:
        return interleaved({"sweep": lambda: run_cells(cells, **kwargs)},
                           1, setup=clear_trace_cache)["sweep"]

    serial = once(jobs=1, timings=cell_seconds)
    with WorkerPool(jobs):
        pool = (once(jobs=jobs), once(jobs=jobs))
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        cold = once(jobs=1, cache=cache)
        cold_hits, cold_misses = cache.stats.hits, cache.stats.misses
        warm = once(jobs=1, cache=cache)

    def match_serial(*runs: Timing) -> bool:
        return all(same_results(serial.result, run.result) for run in runs)

    insts = sum(result.stats.committed_insts
                for result in serial.result.values())
    slowest = sorted(cell_seconds.items(), key=lambda kv: -kv[1])[:5]
    return {
        "serial_seconds": serial.min,
        "parallel_seconds": pool[1].min,
        "pool_reuse": {"cold_seconds": pool[0].min,
                       "warm_seconds": pool[1].min,
                       "metric_identical": match_serial(*pool)},
        "cache": {"cold_seconds": cold.min, "warm_seconds": warm.min,
                  "cold_misses": cold_misses,
                  "warm_hits": cache.stats.hits - cold_hits,
                  "warm_misses": cache.stats.misses - cold_misses,
                  "warm_speedup": speedup_of(cold.min, warm.min),
                  "metric_identical": match_serial(cold, warm)},
        "simulated_insts": insts,
        "serial_insts_per_second": rate_of(insts, serial.min),
        "parallel_insts_per_second": rate_of(insts, pool[1].min),
        "speedup": speedup_of(serial.min, pool[1].min),
        "metric_identical": match_serial(*pool, cold, warm),
        "slowest_cells": [{"workload": key[0], "clusters": key[1],
                           "seconds": seconds}
                          for key, seconds in slowest],
    }


def detailed_vs_sampled(workload: str, config, length: int, sampling,
                        repeats: int = 1) -> Tuple[dict, str]:
    """A detailed run of *length* instructions and the sampled run of
    the same workload, timed in one :func:`interleaved` call, *repeats*
    rounds alternating which side goes first, in-process on one host:
    the ``sampled_sweep`` entry's per-workload row (``ipc_error``
    signed; rates and speedup from each side's median seconds) and both
    timings with their quartiles.
    """
    timings = interleaved({
        "detailed": lambda: simulate(
            FunctionalExecutor(build_workload(workload), length).run(),
            config, max_instructions=length),
        "sampled": lambda: simulate(
            build_workload(workload), config, max_instructions=length,
            sampling=sampling, workload_name=workload)}, repeats)
    detailed, sampled = timings["detailed"], timings["sampled"]
    stats, estimate = detailed.result.stats, sampled.result
    ipc = stats.committed_insts / stats.cycles
    detailed_seconds = detailed.quartiles[1]
    sampled_seconds = sampled.quartiles[1]
    rate = stats.committed_insts / detailed_seconds
    effective = estimate.total_insts / sampled_seconds
    return {
        "workload": workload,
        "detailed_ipc": ipc,
        "sampled_ipc": estimate.ipc,
        "ipc_error": (estimate.ipc - ipc) / ipc,
        "ipc_ci95": estimate.ipc_ci95,
        "detailed_seconds": detailed_seconds,
        "sampled_seconds": sampled_seconds,
        "detailed_insts_per_second": rate,
        "effective_insts_per_second": effective,
        "speedup": effective / rate,
    }, f"detailed {detailed}, sampled {sampled}"


def provenance() -> dict:
    """Where and when this entry was measured.

    The git commit (plus a ``-dirty`` suffix for uncommitted changes),
    a UTC timestamp and the interpreter version make every trajectory
    entry attributable after the fact; without them a regression in the
    history cannot be tied to the change that caused it.  Entries
    recorded outside a git checkout carry ``"commit": null``.
    """
    timestamp = datetime.datetime.now(datetime.timezone.utc)
    return {
        "commit": git_commit(),
        "timestamp_utc": timestamp.strftime("%Y-%m-%dT%H:%M:%SZ"),
        "python": platform.python_version(),
    }


def record(entry: dict) -> None:
    """Append *entry* to ``BENCH_sweep.json`` with its provenance and
    the host's core count, which makes its rates comparable.  Floats
    keep 4 decimals; the bars apply to the unrounded readings.

    A tree with uncommitted changes records nothing: its entry would
    name no commit anyone can check out, yet set the floor later runs
    are held to.  The caller's exit code does not change."""
    info = provenance()
    if (info["commit"] or "").endswith("-dirty"):
        print(f"not recorded: uncommitted changes ({info['commit']})")
        return
    entry = {**entry, **info, "cpu_count": os.cpu_count()}
    append_entry(RESULT_PATH, json.loads(
        json.dumps(entry), parse_float=lambda text: round(float(text), 4)))
    print(f"recorded in {RESULT_PATH}")
