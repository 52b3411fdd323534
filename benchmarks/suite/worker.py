"""One workload in one process: set-up, correctness gate, timed rounds.

``run.py`` starts this script once per workload, so that set-up time and
peak memory belong to that workload alone, and prints what it returns.
The last line of standard output is one JSON object.

    python benchmarks/suite/worker.py WORKLOAD --seed N --seconds S
        [--trace] [--setup-only]

Untraced, the rounds report the end-to-end metrics, each timed unit in
reference-host seconds (``hostspeed.py``).  ``--trace`` runs a traced
round between two untraced ones, then the layer probe, and reports the
per-layer metrics in plain host seconds, writing the spans to
``.benchsuite/``.
"""

import time

# Set-up time counts from here: imports of the simulator are part of it.
START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from statistics import median  # noqa: E402
from typing import Dict, List  # noqa: E402

from common import (OUT_DIR, REFERENCE_PATH, load_json,  # noqa: E402
                    use_checkout_src, write_json)

#: Instructions per golden co-simulation cell of the correctness gate.
GOLDEN_LENGTH = 2_000
#: Timed rounds of an untraced run, at the least: the median needs
#: some, and the results of two rounds must be identical.
MIN_ROUNDS = 2


def peak_rss_mb() -> float:
    """Peak resident memory of this process, which runs every cell; the
    calibration process, its only child, is left out."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def gate(workload, seed: int, spans) -> List[str]:
    """The checks made once per run on short cells of the workload's
    first program.

    Golden co-simulation of two cells raises
    :class:`repro.errors.DivergenceError` when the models disagree.
    JSONL event tracing must leave a cell's result unchanged and write
    a file that passes the trace schema; what is wrong is returned.
    """
    from cases import config_for, trace_of
    from repro.core import simulate
    from repro.errors import DivergenceError
    from repro.obs import EventTracer, JsonlSink, validate_jsonl_trace
    trace = trace_of(workload.programs[0], seed, GOLDEN_LENGTH, spans)
    for label in ("4cl_vpb", "1cl_none"):
        result = simulate(trace, config_for(label), check=True)
        if result.validation.get("golden_commits") != len(trace):
            raise DivergenceError(
                f"golden check on {workload.programs[0]}.{label}: "
                f"{result.validation.get('golden_commits')} golden commits "
                f"for {len(trace)} instructions")

    config = config_for("4cl_vpb")
    path = OUT_DIR / f"gate-{workload.name}-{os.getpid()}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    problems = []
    try:
        sink = JsonlSink(str(path), config.describe())
        try:
            traced = simulate(trace, config, tracer=EventTracer(sink))
        finally:
            sink.close()
        if traced.to_dict() != simulate(trace, config).to_dict():
            problems.append("a JSONL-traced cell's result differs from "
                            "the untraced one")
        validate_jsonl_trace(str(path))
    except (OSError, ValueError) as error:
        problems.append(f"JSONL trace: {error}")
    finally:
        path.unlink(missing_ok=True)
    return problems


def timed_rounds(workload, spans, clock, n_rounds: int = 1,
                 seconds: float = 0.0) -> list:
    """Run *n_rounds* rounds, timing their units on *clock*, and more
    while one more, as long as the longest so far, still ends within
    *seconds* of the first round's start.

    A full collection after each round, outside the timed units, frees
    the reference cycles a simulation leaves, so that peak memory is
    one round's working set whatever the number of rounds.
    """
    rounds = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        begun = time.perf_counter()
        rounds.append(workload.run_round(spans, clock))
        gc.collect()
        now = time.perf_counter()
        longest = max(longest, now - begun)
        if len(rounds) >= n_rounds and now - start + longest > seconds:
            return rounds


def outcome(workload, rounds, reference: dict, problems=()) -> dict:
    """Correctness, failure counts and the deterministic outputs;
    *problems* are those the caller found already."""
    from cases import digest
    problems = list(problems) + workload.check(rounds[-1])
    digests = [digest(rnd.results) for rnd in rounds]
    if len(set(digests)) > 1:
        problems.append("simulated results differ between rounds")
    attempted = sum(rnd.attempted for rnd in rounds)
    failed = sum(rnd.failed for rnd in rounds)
    fidelity = {"failed_frac": failed / attempted}
    if failed:
        # A round that lost cells has no complete outputs to summarise.
        return {"correct": False, "attempted": attempted, "failed": failed,
                "problems": problems, "sim_digest": None,
                "sim_digest_status": "not compared: cells failed",
                "sim_changed": [], "sim": {}, "fidelity": fidelity}
    results = rounds[0].results
    sim = workload.sim_metrics(results)
    stored = (reference.get("sim_digest", {}).get(str(workload.seed), {})
              .get(workload.name))
    if stored is None:
        status, changed = "no reference for this seed", []
    elif stored["digest"] == digests[0]:
        status, changed = "OK", []
    else:
        status = "CHANGED"
        changed = sorted(name for name in set(sim) | set(stored["sim"])
                         if sim.get(name) != stored["sim"].get(name))
    fidelity.update(workload.fidelity(results, reference))
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "problems": problems, "sim_digest": digests[0],
            "sim_digest_status": status, "sim_changed": changed,
            "sim": sim, "fidelity": fidelity}


def untraced_run(workload, seed: int, seconds: float,
                 reference: dict) -> dict:
    """Set-up, gate and *seconds* of timed rounds (at least
    :data:`MIN_ROUNDS`); the end-to-end metrics.

    Times are in reference-host seconds, except ``setup_s``, which is
    this process's own wall time (``run.py`` replaces it with the
    calibrated median of separate set-up processes).
    """
    import stats
    from hostspeed import HostClock
    from spans import NullRecorder
    spans = NullRecorder()
    loadavg = os.getloadavg()[0]
    workload.setup(seed, spans)
    setup_s = time.perf_counter() - START
    problems = gate(workload, seed, spans)
    with HostClock() as clock:
        rounds = timed_rounds(workload, spans, clock, MIN_ROUNDS, seconds)
    peak = peak_rss_mb()
    cells = [seconds for rnd in rounds for seconds in rnd.cell_seconds]
    report = outcome(workload, rounds, reference, problems)
    report["metrics"] = {
        "setup_s": setup_s,
        "wall_s": median(rnd.seconds for rnd in rounds),
        "insts_per_s": median(rnd.insts / rnd.seconds for rnd in rounds),
        "peak_rss_mb": peak,
    }
    # Cell times are reported, not bounded: one cell carries one unit's
    # calibration error, where a round sums 16 to 90 units, so their
    # median and tail spread twice as much as wall_s from run to run.
    percentiles = sorted({50, stats.tail_percentile(len(cells))})
    report["extra"] = {
        "rounds": len(rounds), "cells": len(cells), "loadavg_1m": loadavg,
        "cell_s": {f"p{p:g}": stats.percentile(cells, p)
                   for p in percentiles},
        "wall_s_per_round": [rnd.seconds for rnd in rounds],
        "host_wall_s_per_round": [rnd.wall for rnd in rounds],
        "host_speed_quartiles": (list(stats.quartiles(clock.factors))
                                 if clock.factors else []),
    }
    return report


def traced_run(workload, seed: int, reference: dict, spans_path,
               **probe_sizes) -> dict:
    """Set-up, gate, an untraced then a traced round, and the layer
    probe; the per-layer metrics, plus the full catalogue of this
    workload's layer values and the span file.  Times are plain host
    seconds."""
    import layers
    from hostspeed import HostClock
    from spans import NullRecorder, SpanRecorder
    spans = SpanRecorder()
    clock = HostClock(calibrated=False)
    loadavg = os.getloadavg()[0]
    with spans.span("bench.setup", workload.name):
        workload.setup(seed, spans)
    with spans.span("bench.gate", workload.name):
        problems = gate(workload, seed, spans)
    # Untraced rounds on both sides of the traced one, so that the first
    # round's warm-up does not read as tracing overhead.
    (before,) = timed_rounds(workload, NullRecorder(), clock)
    with spans.span("bench.round", workload.name):
        (rnd,) = timed_rounds(workload, spans, clock)
    (after,) = timed_rounds(workload, NullRecorder(), clock)
    busy = sum(rnd.cell_seconds)
    metrics = {
        "analysis.cell_busy_s": busy,
        "analysis.dispatch_s": rnd.wall - busy,
        "bench.trace_overhead_x": 2 * rnd.wall / (before.wall + after.wall),
        "bench.loadavg_1m": loadavg,
    }
    scratch = OUT_DIR / f"probe-{workload.name}-{os.getpid()}.jsonl"
    with spans.span("bench.probe", workload.name):
        metrics.update(layers.probe(workload.programs, seed, spans,
                                    str(scratch), **probe_sizes))
    report = outcome(workload, [before, rnd, after], reference, problems)
    # Where the probe and the round simulate the same cells (the
    # headline grid), a sim.* name must carry one value.
    for name in sorted(set(metrics) & set(report["sim"])):
        if metrics[name] != report["sim"][name]:
            report["problems"].append(
                f"{name}: layer probe {metrics[name]!r}, round "
                f"{report['sim'][name]!r}")
            report["correct"] = False
    catalogue: Dict[str, float] = dict(rnd.layer)
    catalogue.update(report["sim"])
    catalogue.update(report["fidelity"])
    catalogue.update({f"span.{name}.self_s": seconds for name, seconds
                      in spans.self_time_by_name().items()})
    write_json(spans_path, spans.to_dict())
    report["metrics"] = metrics
    report["extra"] = {"layer_catalogue": catalogue,
                       "spans_path": str(spans_path)}
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    use_checkout_src()
    from cases import WORKLOADS
    from repro.errors import ReproError
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    if args.setup_only:
        from spans import NullRecorder
        workload.setup(args.seed, NullRecorder())
        print(json.dumps({"setup_s": time.perf_counter() - START}))
        return 0
    reference = load_json(REFERENCE_PATH) if REFERENCE_PATH.is_file() else {}
    try:
        if args.trace:
            report = traced_run(
                workload, args.seed, reference,
                OUT_DIR / f"spans-{workload.name}-seed{args.seed}.json")
        else:
            report = untraced_run(workload, args.seed, args.seconds,
                                  reference)
    except ReproError as error:
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "problems": [f"{type(error).__name__}: {error}"],
                          "metrics": {}}))
        return 1
    print(json.dumps(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
