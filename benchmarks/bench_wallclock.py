"""Wall-clock benchmark of the parallel sweep runner.

Runs one fixed suite sweep several ways — serially (``jobs=1``), fanned
out across a fresh worker pool, again on the same (warm) pool, and
through a cold-then-warm result cache — verifies every variant is
metric-identical to serial, and records wall-clock times plus
simulated-instructions-per-second into ``BENCH_sweep.json`` at the repo
root (the perf trajectory file; each entry is appended, so the history
survives re-runs).

Timing and recording go through ``harness.py``; entries are written
through :func:`repro.analysis.perf_report.append_entry` —
schema-tagged, stably key-ordered, deduplicated — so ``repro report``
can always render the trajectory.  Each entry also carries provenance
(git commit, UTC timestamp, python version — see
``harness.provenance``), the dispatch chunk size
(``repro.analysis.parallel.resolve_chunksize``), the pool-reuse and
cache sections, the serial run's per-cell wall-clock costs (the slowest
cells, from ``run_cells(timings=...)``) and a tracer overhead section
comparing an untraced run against ring-buffer and JSONL tracing
(min-of-N, docs/OBSERVABILITY.md).

Run directly (``python benchmarks/bench_wallclock.py``) or via
``make bench-wallclock``.  Knobs: ``REPRO_JOBS`` sets the parallel
worker count (default: all cores), ``REPRO_TRACE_LEN`` the per-cell
trace length, ``REPRO_CHUNKSIZE`` the cells per worker dispatch; a
malformed value exits 2.

``--sampled`` runs the checkpointed-sampling benchmark instead
(docs/SAMPLING.md): each workload gets one full detailed
million-instruction reference run and one sampled run at
``sample_check``'s validated plan (16 windows of 200+1200) and bars,
and the entry records per-workload IPC error, effective insts/s and
speedup with ``"shape": "sampled"`` so the detailed-throughput
regression guard never mixes the two populations.

The recorded ``cpu_count`` is what makes the speedup interpretable:
on a single-core host the parallel path degenerates to process overhead
and the honest speedup is ~1x or below; the >= 1.5x criterion applies
to hosts with >= 2 cores.  A degenerate run whose parallel time rounds
to zero records no ``speedup`` at all (``None`` would read as
"infinitely slower"; see ``harness.speedup_of``).
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

from harness import (bench_jobs, cli_errors, detailed_vs_sampled,
                     interleaved, record, sweep_cells, sweep_timings)
from repro.analysis.cache import use_cache
from repro.analysis.parallel import resolve_chunksize, resolve_trace_length
from repro.core import make_config, simulate
from repro.obs import EventTracer, JsonlSink, RingBufferSink
from repro.workloads import workload_trace
from sample_check import CLUSTERS, CONFIG_KW, MAX_IPC_ERROR, MIN_SPEEDUP, \
    SAMPLING, LENGTH as SAMPLED_LENGTH

#: The benchmark sweep: every suite workload at 2 and 4 clusters.
CONFIGS = ((2, "stride", "vpb"), (4, "stride", "vpb"))

#: The sampled benchmark's population (docs/SAMPLING.md): the suite
#: members ``sample_check``'s plan and length were validated on.  The acceptance bar
#: is >= ``SAMPLED_MIN_WORKLOADS`` of them inside both of its accuracy
#: and throughput envelopes on an idle host.
SAMPLED_WORKLOADS = ("mesatexgen", "cjpeg", "rawcaudio", "mpeg2enc",
                     "mesaosdemo", "rasta", "gsmdec", "pgpdec")
SAMPLED_MIN_WORKLOADS = 6


def sampled_benchmark() -> int:
    """Detailed-vs-sampled benchmark; appends a ``shape: sampled`` entry."""
    config = make_config(CLUSTERS, **CONFIG_KW)
    print(f"sampled sweep: {len(SAMPLED_WORKLOADS)} workloads x "
          f"{SAMPLED_LENGTH} insts, {SAMPLING.samples} windows of "
          f"{SAMPLING.warmup}+{SAMPLING.interval}, {config.describe()}")

    rows = []
    for name in SAMPLED_WORKLOADS:
        row, readings = detailed_vs_sampled(name, config, SAMPLED_LENGTH,
                                            SAMPLING)
        passed = (abs(row["ipc_error"]) <= MAX_IPC_ERROR
                  and row["speedup"] >= MIN_SPEEDUP)
        rows.append({**row, "within_bars": passed})
        print(f"  {name:12s}: sampled {row['sampled_ipc']:.4f} vs "
              f"detailed {row['detailed_ipc']:.4f} "
              f"({row['ipc_error']:+.2%}), {row['speedup']:.1f}x "
              f"[{'ok' if passed else 'MISS'}]; {readings}")

    passing = sum(row["within_bars"] for row in rows)
    errors = [abs(row["ipc_error"]) for row in rows]
    entry = {
        "benchmark": "sampled_sweep",
        "shape": "sampled",
        "trace_length": SAMPLED_LENGTH,
        "sampling": SAMPLING.canonical_dict(),
        "config": {"clusters": CLUSTERS, **CONFIG_KW},
        "workloads": rows,
        "max_ipc_error": max(errors),
        "mean_ipc_error": sum(errors) / len(errors),
        "min_speedup": min(row["speedup"] for row in rows),
        "median_speedup": sorted(row["speedup"] for row in rows)[
            len(rows) // 2],
        "workloads_within_bars": passing,
        "bars": {"max_ipc_error": MAX_IPC_ERROR,
                 "min_speedup": MIN_SPEEDUP,
                 "min_workloads": SAMPLED_MIN_WORKLOADS},
    }
    record(entry)
    print(f"{passing}/{len(rows)} workloads within both bars "
          f"(need >= {SAMPLED_MIN_WORKLOADS}); max |error| "
          f"{entry['max_ipc_error']:.2%}, median speedup "
          f"{entry['median_speedup']:.1f}x")
    return 0 if passing >= SAMPLED_MIN_WORKLOADS else 1


@cli_errors
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sampled", action="store_true",
                        help="run the checkpointed-sampling benchmark "
                             "instead of the sweep-parallelism one")
    args = parser.parse_args(argv)
    # Shadow any ambient REPRO_CACHE: the serial/parallel timings must
    # measure simulation, and the cache section brings its own cache.
    with use_cache(None):
        if args.sampled:
            return sampled_benchmark()
        return sweep_benchmark()


def sweep_benchmark() -> int:
    """Serial vs parallel vs cached sweep; appends a ``sweep_wallclock``
    entry."""
    length = resolve_trace_length(None, default=4_000)
    jobs = bench_jobs()
    cells = sweep_cells(CONFIGS, length)
    chunksize = resolve_chunksize(None, len(cells), jobs)
    print(f"sweep: {len(cells)} cells x {length} instructions; "
          f"parallel jobs={jobs}, chunksize={chunksize} "
          f"(cpu_count={os.cpu_count()})")

    entry = {"benchmark": "sweep_wallclock", "jobs": jobs,
             "chunksize": chunksize, "cells": len(cells),
             "trace_length": length, **sweep_timings(cells, jobs)}
    pool, cache = entry["pool_reuse"], entry["cache"]
    print(f"serial {entry['serial_seconds']:.2f}s; pool "
          f"{pool['cold_seconds']:.2f}s cold, {pool['warm_seconds']:.2f}s "
          f"warm; cache {cache['cold_seconds']:.2f}s cold, "
          f"{cache['warm_seconds']:.2f}s warm ({cache['warm_hits']} hits)")
    for cell in entry["slowest_cells"]:
        print(f"  slow cell {cell['workload']} x {cell['clusters']}: "
              f"{cell['seconds']:.2f}s")
    entry["tracer_overhead"] = tracer_overhead(length)
    if entry["speedup"] is None:
        del entry["speedup"]  # no meaningful ratio; see speedup_of
    record(entry)
    shown = f"{entry['speedup']:.2f}x" if "speedup" in entry else "n/a"
    warm = cache["warm_speedup"]
    print(f"speedup : {shown} on {jobs} job(s) (warm pool); cache warm "
          f"rerun {f'{warm:.1f}x' if warm else 'n/a'} vs cold")
    print(f"metric-identical: {entry['metric_identical']}")
    return 0 if entry["metric_identical"] else 1


def tracer_overhead(length: int) -> dict:
    """Min-of-3 wall-clock of one run untraced vs ring vs JSONL
    (``harness.interleaved``); ratios > 1 are tracing cost."""
    trace = list(workload_trace("cjpeg", length))
    config = make_config(4, predictor="stride", steering="vpb")

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bench.jsonl")

        def jsonl_run():
            with JsonlSink(path, config.describe()) as sink:
                simulate(list(trace), config, tracer=EventTracer(sink))

        timings = interleaved({
            "baseline": lambda: simulate(list(trace), config),
            "ring": lambda: simulate(list(trace), config,
                                     tracer=EventTracer(RingBufferSink())),
            "jsonl": jsonl_run}, 3)
    overhead = {}
    for name, timing in timings.items():
        ratio = timing.min / timings["baseline"].min - 1.0
        print(f"tracer {name:8s}: {timing}, {ratio:+.1%}")
        overhead[f"{name}_seconds"] = timing.min
        if name != "baseline":
            overhead[f"{name}_overhead"] = ratio
    return overhead


if __name__ == "__main__":
    sys.exit(main())
