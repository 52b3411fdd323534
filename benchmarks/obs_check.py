"""Observability health gate: ``make obs-check``.

Runs one short simulation four ways — untraced, ring-buffer traced,
JSONL traced, Chrome traced — and asserts the contract documented in
docs/OBSERVABILITY.md:

1. **Non-invasiveness** — every ``SimStats`` field of the traced runs
   is bit-identical to the untraced run.
2. **Completeness** — the tracer's commit-event count equals
   ``committed_insts + committed_copies + committed_vcopies``.
3. **Schema validity** — the JSONL file passes
   :func:`repro.obs.schema.validate_jsonl_trace` and the Chrome file
   passes :func:`repro.obs.schema.validate_chrome_trace`.
4. **Overhead** — ring-buffer tracing costs < 10% wall-clock over the
   untraced run (interleaved min-of-N timing to filter host noise).
5. **Zero-cost when off** — an untraced, unmetered run performs *no*
   allocation from any ``repro.obs`` module (tracemalloc audit): the
   disabled hooks must stay behind their ``is not None`` guards, so
   turning observability off really removes it from the hot loop.

Exit code 0 when every check passes, 1 otherwise (2 on bad input).
The tier-1 test suite runs :func:`run_checks` directly, so a regression
in any of these fails ``make test`` as well as ``make obs-check``.
"""

from __future__ import annotations

import gc
import os
import sys
import tempfile
import tracemalloc

from harness import (Check, cli_errors, overhead_check, report,
                     same_results, schema_check)
from repro.core import make_config, simulate
from repro.obs import (ChromeTraceSink, EventTracer, JsonlSink,
                       RingBufferSink)
from repro.obs.events import EV_COMMIT
from repro.obs.schema import validate_chrome_trace, validate_jsonl_trace
from repro.workloads import workload_trace

#: Wall-clock overhead budget for ring-buffer tracing.
OVERHEAD_BUDGET = 0.10


def _obs_off_allocations(trace, config):
    """Bytes allocated from ``repro.obs`` modules by an untraced run.

    With the tracer and interval metrics both disabled every obs hook
    sits behind an ``is not None`` guard, so a hot-loop simulation must
    not execute — let alone allocate in — any ``repro.obs`` code.  A
    non-zero figure means a hook escaped its guard (the regression this
    gate exists to catch: "disabled observability costs nothing").
    tracemalloc attributes every allocation to the source file that
    made it, which pins the offender directly.
    """
    obs_dir = os.path.join("repro", "obs") + os.sep
    gc.collect()
    tracemalloc.start()
    try:
        simulate(list(trace), config)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    offenders = {}
    for stat in snapshot.statistics("filename"):
        filename = stat.traceback[0].filename
        if obs_dir in filename:
            offenders[os.path.basename(filename)] = stat.size
    return offenders


def run_checks(length: int = 4000, repeats: int = 5,
               overhead_budget: float = OVERHEAD_BUDGET) -> list:
    """Run every check; returns a list of :class:`harness.Check`."""
    trace = list(workload_trace("cjpeg", length))
    config = make_config(4, predictor="stride", steering="vpb")
    # Timed first, on a clean heap: the schema/serialization checks
    # below churn enough garbage to visibly slow later runs.
    checks = [overhead_check(
        f"ring overhead < {overhead_budget:.0%}",
        {"untraced": lambda: simulate(list(trace), config),
         "ring": lambda: simulate(list(trace), config,
                                  tracer=EventTracer(RingBufferSink()))},
        repeats, overhead_budget)]

    offenders = _obs_off_allocations(trace, config)
    checks.append(Check("obs-off allocates nothing in repro.obs",
                        not offenders,
                        "no obs-module allocations" if not offenders else
                        ", ".join(f"{name}: {size}B" for name, size
                                  in sorted(offenders.items()))))

    base = simulate(list(trace), config)
    ring_tracer = EventTracer(RingBufferSink())
    ring = simulate(list(trace), config, tracer=ring_tracer)
    identical = same_results({"cjpeg": base}, {"cjpeg": ring})
    checks.append(Check("non-invasive (stats bit-identical)", identical,
                        "" if identical else "traced stats diverge"))

    stats = ring.stats
    expected = (stats.committed_insts + stats.committed_copies
                + stats.committed_vcopies)
    commits = ring_tracer.counts[EV_COMMIT]
    checks.append(Check("commit events == committed uops",
                        commits == expected,
                        f"{commits} events vs {expected} committed"))

    with tempfile.TemporaryDirectory() as tmp:
        jsonl_path = os.path.join(tmp, "trace.jsonl")
        chrome_path = os.path.join(tmp, "trace.json")
        with JsonlSink(jsonl_path, config.describe()) as sink:
            simulate(list(trace), config, tracer=EventTracer(sink))
        with ChromeTraceSink(chrome_path, config.describe()) as sink:
            simulate(list(trace), config, tracer=EventTracer(sink))
        checks += [schema_check("jsonl schema", validate_jsonl_trace,
                                jsonl_path, "events"),
                   schema_check("chrome schema", validate_chrome_trace,
                                chrome_path, "events")]

    return checks


@cli_errors
def main() -> int:
    return report("obs-check", run_checks())


if __name__ == "__main__":
    sys.exit(main())
