"""Sub-minute smoke gate for the sweep fast paths (``make bench-smoke``).

Four properties, asserted (exit 1 on violation), all on a small sweep
so the gate stays well under a minute:

1. **Parallel wins** — on a multi-core host, a warm-pool chunked
   parallel sweep must not be slower than serial (the PR 2 regression:
   per-cell dispatch + per-driver executor startup made ``jobs=2``
   *slower*).  Single-core hosts skip this assertion (the honest
   expectation there is ~1x or below) but still exercise the path.
2. **Cache works** — a cold-then-warm cache cycle: the warm rerun must
   be all hits (zero simulations dispatched) and faster than cold.
3. **Nothing drifts** — every variant (cold and warm pool, cold and
   warm cache) is metric-identical to the serial, uncached sweep.
4. **Single-core throughput holds** — the serial sweep's simulated
   instructions per second must stay within
   :data:`~repro.analysis.perf_report.DEFAULT_THRESHOLD` (20%) of the
   best same-shape (:func:`~repro.analysis.perf_report.shape_key`)
   ``smoke_guard`` entry in ``BENCH_sweep.json``; every passing run
   appends its own entry (with provenance), so the guard tracks the
   best rate this host has ever demonstrated.  Entries from a
   different trace length, cell count or core count are not
   comparable (shorter traces amortize less trace generation) and are
   ignored.

The sweep is timed by ``harness.sweep_timings``; a throughput reading
below the floor is re-measured under ``harness.remeasure``.  Run
directly or via ``make bench-smoke``; honours ``REPRO_JOBS`` (default:
all cores) and ``REPRO_CHUNKSIZE``, and exits 2 on a malformed value.
See docs/PERFORMANCE.md.
"""

from __future__ import annotations

import os
import sys

from harness import (RESULT_PATH, Check, Timing, bench_jobs, cli_errors,
                     interleaved, record, remeasure, report, sweep_cells,
                     sweep_timings)
from repro.analysis.cache import use_cache
from repro.analysis.parallel import resolve_chunksize, run_cells
from repro.analysis.perf_report import (DEFAULT_THRESHOLD, load_history,
                                        shape_key)
from repro.workloads import clear_trace_cache, workload_names

#: Small but not trivial: enough cells that chunked dispatch matters,
#: short enough traces that the whole gate runs in seconds.
LENGTH = 1_500
N_WORKLOADS = 8
CONFIGS = ((2, "stride", "vpb"), (4, "stride", "vpb"))


def throughput(cells, sweep: dict) -> Check:
    """Gate 4: guard single-core throughput; only a passing run enters
    the history."""
    insts = sweep["simulated_insts"]
    entry = {"benchmark": "smoke_guard", "shape": "serial",
             "cells": len(cells), "trace_length": LENGTH,
             "cpu_count": os.cpu_count()}
    best = max((old["serial_insts_per_second"]
                for old in load_history(RESULT_PATH)
                if shape_key(old) == shape_key(entry)
                and old.get("serial_insts_per_second")), default=None)
    floor = best * (1.0 - DEFAULT_THRESHOLD) if best else 0.0
    serial = remeasure(
        lambda repeats: interleaved(
            {"serial": lambda: run_cells(cells, jobs=1)}, repeats,
            setup=clear_trace_cache)["serial"],
        1, lambda timing: insts / timing.min >= floor,
        lambda timing: timing.min,
        reading=Timing((sweep["serial_seconds"],)))
    rate = insts / serial.min
    if rate >= floor:
        record({**entry, "serial_seconds": serial.min,
                "simulated_insts": insts,
                "serial_insts_per_second": rate})
    history = (f"best recorded {best:,.0f}, floor {floor:,.0f}" if best
               else "no comparable history; guard passes vacuously")
    return Check(f"serial throughput within {DEFAULT_THRESHOLD:.0%} of "
                 f"best", rate >= floor, f"{rate:,.0f} insts/s, serial "
                 f"{serial} ({history})")


@cli_errors
def main() -> int:
    cells = sweep_cells(CONFIGS, LENGTH, workload_names()[:N_WORKLOADS])
    jobs = bench_jobs()
    cores = os.cpu_count() or 1
    chunksize = resolve_chunksize(None, len(cells), jobs)
    print(f"smoke sweep: {len(cells)} cells x {LENGTH} instructions; "
          f"jobs={jobs}, chunksize={chunksize}, cpu_count={cores}")

    with use_cache(None):
        sweep = sweep_timings(cells, jobs)
        checks = [throughput(cells, sweep)]
    pool, cache = sweep["pool_reuse"], sweep["cache"]
    multi_core = cores >= 2 and jobs >= 2
    parallel = (f"warm pool {sweep['parallel_seconds']:.3f}s vs serial "
                f"{sweep['serial_seconds']:.3f}s")
    return report("bench-smoke", checks + [
        Check("warm-pool parallel no slower than serial",
              not multi_core
              or sweep["parallel_seconds"] <= sweep["serial_seconds"],
              parallel if multi_core else
              f"skipped on a single-core host (or jobs=1): {parallel}"),
        Check("parallel metric-identical to serial",
              pool["metric_identical"]),
        Check("warm cache rerun simulates nothing",
              cache["warm_hits"] == len(cells)
              and cache["warm_misses"] == 0,
              f"{cache['warm_hits']} hits / {cache['warm_misses']} "
              f"misses over {len(cells)} cells"),
        Check("warm cache faster than cold",
              cache["warm_seconds"] < cache["cold_seconds"],
              f"cold {cache['cold_seconds']:.3f}s -> warm "
              f"{cache['warm_seconds']:.3f}s"),
        Check("cached sweep metric-identical to serial",
              cache["metric_identical"]),
    ])


if __name__ == "__main__":
    sys.exit(main())
