"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list-workloads`` — the Table 2 stand-in suite.
* ``simulate`` — one (workload, configuration) run with a summary;
  ``--trace-out`` / ``--metrics-out`` / ``--metrics-interval`` /
  ``--profile`` attach the observability layer
  (docs/OBSERVABILITY.md).
  ``--sample-interval`` switches to sampled simulation
  (docs/SAMPLING.md) for million-instruction runs.
* ``checkpoint`` — save / inspect / resume machine snapshots
  (docs/SAMPLING.md).
* ``trace`` — ASCII pipeline diagram of a window of the dynamic
  stream, optionally also writing a Perfetto-loadable trace file.
* one subcommand per entry of the experiment table
  (:data:`repro.analysis.experiments.EXPERIMENTS`): ``figure2`` /
  ``figure3`` / ``figure4a`` / ``figure4b`` / ``figure5``, ``headline``,
  ``robustness``, ``input-sensitivity``, ``scaling`` and the six
  ablations — each regenerates one paper table as an ASCII report.
* ``ablations`` — the §3.2/§3.3 side experiments plus this repo's own
  predictor, free-copy, static-partitioning and predictor-family
  ablations, in one run.
* ``campaign`` — the fault-injection robustness campaign
  (docs/ROBUSTNESS.md), written to ``results/robustness_campaign.txt``.
* ``cache`` — stats/clear maintenance of the opt-in content-addressed
  sweep result cache (docs/PERFORMANCE.md).
* ``report`` — markdown perf-regression dashboard rendered from the
  ``BENCH_sweep.json`` trajectory plus optional run receipts
  (docs/PERFORMANCE.md).

Every experiment command honours ``--workloads``, ``--length``,
``--jobs`` and ``--cache-dir`` (and the ``REPRO_WORKLOADS`` /
``REPRO_TRACE_LEN`` / ``REPRO_JOBS`` / ``REPRO_CACHE`` environment
variables).  An experiment command holds one shared worker pool for
its whole run, so multi-sweep commands (``ablations``) pay worker
startup once.  ``--progress`` streams live
sweep progress to stderr, ``--telemetry-out`` mirrors the typed run
events to a JSONL file (flushed per event, so an interrupted run keeps
its partial log), and ``--receipt-out`` writes a provenance receipt
(docs/OBSERVABILITY.md).

Exit codes: 0 on success, 1 when the simulation itself failed
(divergence, deadlock, ...), 2 on a usage error (bad flag values,
unknown workload).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from . import analysis
from .analysis.experiments import (ABLATIONS, EXPERIMENTS, render,
                                   run_experiment, selected_workloads)
from .core import make_config, simulate
from .errors import ConfigError, SimulationError, WorkloadError
from .predictor import PREDICTORS
from .steering import STEERERS
from .validation import FaultPlan, format_campaign, run_fault_campaign
from .workloads import SUITE, workload_names, workload_trace

__all__ = ["main", "build_parser"]

#: ``main``'s exit codes (also asserted by the test suite).
EXIT_OK = 0
EXIT_SIMULATION_ERROR = 1
EXIT_USAGE_ERROR = 2

#: Steering schemes a run command accepts: ``static`` needs a profiled
#: assignment, which no flag supplies.
_CLI_STEERING = tuple(name for name in STEERERS if name != "static")

#: Sampled-run defaults (docs/SAMPLING.md's validated plan).
SAMPLE_WARMUP_DEFAULT = 200
SAMPLES_DEFAULT = 16


def build_parser() -> argparse.ArgumentParser:
    """The repro CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Reducing Wire Delay Penalty "
                    "through Value Prediction' (MICRO-33, 2000).")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-workloads", help="show the Table 2 suite")

    sim = sub.add_parser("simulate", help="run one configuration")
    _add_config_flags(sim)
    sim.add_argument("--check", action="store_true",
                     help="co-simulate against the golden model and fail "
                          "on any divergence")
    sim.add_argument("--inject", default=None, metavar="SPEC",
                     help="fault-injection spec, e.g. 'value:0.02' or "
                          "'value:0.05,steer:0.01@seed=7'")
    sim.add_argument("--trace-out", default=None, metavar="PATH",
                     help="write the structured event trace: *.jsonl for "
                          "JSON Lines, anything else for Chrome "
                          "trace-event JSON (load in ui.perfetto.dev)")
    sim.add_argument("--metrics-out", default=None, metavar="PATH",
                     help="write interval metric samples: *.csv or "
                          "*.json (implies --metrics-interval 1000 "
                          "unless given)")
    sim.add_argument("--metrics-interval", type=int, default=None,
                     metavar="N", help="sample interval metrics every N "
                     "cycles and print a time-resolved summary")
    sim.add_argument("--profile", action="store_true",
                     help="attribute host wall-clock time across "
                          "simulator loop stages")
    sim.add_argument("--sample-interval", type=int, default=None,
                     metavar="N",
                     help="switch to sampled simulation: measure N "
                          "detailed instructions per window and "
                          "fast-forward between windows "
                          "(docs/SAMPLING.md)")
    sim.add_argument("--sample-warmup", type=int, default=None,
                     metavar="N",
                     help="detailed instructions simulated and "
                          "discarded before each measured window "
                          f"(default {SAMPLE_WARMUP_DEFAULT}; needs "
                          "--sample-interval)")
    sim.add_argument("--samples", type=int, default=None, metavar="K",
                     help="number of sample windows, one per equal "
                          "stratum of the run (default "
                          f"{SAMPLES_DEFAULT}; needs --sample-interval)")

    trc = sub.add_parser(
        "trace",
        help="pipeline diagram of a window of the dynamic stream")
    _add_config_flags(trc)
    trc.add_argument("--first-seq", type=int, default=0,
                     help="first dynamic instruction of the window")
    trc.add_argument("--count", type=int, default=24,
                     help="window length in dynamic instructions")
    trc.add_argument("--out", default=None, metavar="PATH",
                     help="also write the full run's Chrome trace-event "
                          "JSON (load in ui.perfetto.dev)")

    camp = sub.add_parser(
        "campaign",
        help="fault-injection robustness campaign (seeds x fault kinds)")
    camp.add_argument("--workloads", default=None,
                      help="comma-separated suite subset")
    camp.add_argument("--length", type=int, default=None,
                      help="dynamic instructions per benchmark")
    camp.add_argument("--seeds", type=int, default=3,
                      help="seeds per (workload, fault-kind) cell")
    camp.add_argument("--rate", type=float, default=0.05,
                      help="injection rate per opportunity")
    camp.add_argument("--output", default=None,
                      help="report path (default: "
                           "results/robustness_campaign.txt)")
    camp.add_argument("--jobs", type=int, default=None,
                      help="fan per-workload blocks across this many "
                           "worker processes (0 = all cores)")
    camp.add_argument("--progress", action="store_true",
                      help="stream live sweep progress to stderr")
    camp.add_argument("--telemetry-out", default=None, metavar="PATH",
                      help="mirror the run's telemetry events to this "
                           "JSONL file (flushed per event)")

    cache = sub.add_parser(
        "cache",
        help="sweep result cache maintenance (docs/PERFORMANCE.md)")
    cache.add_argument("action", choices=("stats", "clear"),
                       help="show entry count/size, or delete entries")
    cache.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="cache directory (default: REPRO_CACHE or "
                            ".repro_cache)")

    rep = sub.add_parser(
        "report",
        help="perf-regression dashboard from BENCH_sweep.json and "
             "run receipts (docs/PERFORMANCE.md)")
    rep.add_argument("--bench", default=None, metavar="PATH",
                     help="benchmark history file (default: the repo's "
                          "BENCH_sweep.json)")
    rep.add_argument("--receipt", action="append", default=[],
                     metavar="PATH",
                     help="run receipt to summarize (repeatable)")
    rep.add_argument("--out", default=None, metavar="PATH",
                     help="write the markdown dashboard here instead of "
                          "stdout")
    rep.add_argument("--threshold", type=float, default=0.20,
                     help="fractional throughput drop vs the best "
                          "same-shape entry that counts as a regression "
                          "(default 0.20)")
    rep.add_argument("--fail-on-regression", action="store_true",
                     help="exit 1 when any regression is flagged")

    ckpt = sub.add_parser(
        "checkpoint",
        help="save/inspect/resume machine snapshots (docs/SAMPLING.md)")
    ckpt_sub = ckpt.add_subparsers(dest="ckpt_action", required=True)
    ck_save = ckpt_sub.add_parser(
        "save", help="fast-forward a workload and snapshot the "
                     "architectural state")
    ck_save.add_argument("workload", choices=workload_names())
    ck_save.add_argument("--at", type=int, required=True, metavar="N",
                         help="instruction position to snapshot at")
    ck_save.add_argument("--out", required=True, metavar="PATH",
                         help="snapshot file to write")
    ck_save.add_argument("--max-insts", type=int, default=1_000_000,
                         metavar="M",
                         help="run cap recorded in the snapshot "
                              "(default 1000000)")
    ck_info = ckpt_sub.add_parser(
        "info", help="print a snapshot's header without unpickling it")
    ck_info.add_argument("path", metavar="PATH")
    ck_resume = ckpt_sub.add_parser(
        "resume", help="restore an executor snapshot and run a detailed "
                       "window from it")
    ck_resume.add_argument("path", metavar="PATH")
    ck_resume.add_argument("--run", type=int, default=10_000, metavar="N",
                           help="detailed instructions to simulate from "
                                "the snapshot (default 10000)")
    ck_resume.add_argument("--clusters", type=int, default=4,
                           choices=(1, 2, 4))
    ck_resume.add_argument("--predictor", default="none",
                           choices=tuple(PREDICTORS))
    ck_resume.add_argument("--steering", default="baseline",
                           choices=_CLI_STEERING)
    ck_resume.add_argument("--comm-latency", type=int, default=1)
    ck_resume.add_argument("--paths", type=int, default=None)

    for name, help_text in (
            *((exp.name, exp.title) for exp in EXPERIMENTS.values()),
            ("ablations", "the six ablation tables: "
                          + ", ".join(ABLATIONS))):
        fig = sub.add_parser(name, help=help_text)
        fig.add_argument("--workloads", default=None,
                         help="comma-separated suite subset")
        fig.add_argument("--length", type=int, default=None,
                         help="dynamic instructions per benchmark")
        fig.add_argument("--jobs", type=int, default=None,
                         help="sweep worker processes (0 = all cores; "
                              "default: REPRO_JOBS or serial)")
        fig.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="content-addressed result cache directory "
                              "(default: REPRO_CACHE, or no caching)")
        fig.add_argument("--progress", action="store_true",
                         help="stream live sweep progress to stderr")
        fig.add_argument("--telemetry-out", default=None, metavar="PATH",
                         help="mirror the run's telemetry events to this "
                              "JSONL file (flushed per event)")
        fig.add_argument("--receipt-out", default=None, metavar="PATH",
                         help="write a provenance run receipt "
                              "(docs/OBSERVABILITY.md) covering the "
                              "command's sweeps")
    return parser


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """Workload + processor-configuration flags shared by run commands."""
    parser.add_argument("workload", choices=workload_names())
    parser.add_argument("--clusters", type=int, default=4,
                        choices=(1, 2, 4))
    parser.add_argument("--predictor", default="none",
                        choices=tuple(PREDICTORS))
    parser.add_argument("--steering", default="baseline",
                        choices=_CLI_STEERING)
    parser.add_argument("--length", type=int, default=12_000,
                        help="dynamic instructions to simulate")
    parser.add_argument("--comm-latency", type=int, default=1)
    parser.add_argument("--paths", type=int, default=None,
                        help="interconnect paths per cluster (default: "
                             "unbounded)")


def _cmd_list_workloads() -> None:
    rows = [[spec.name, spec.category, f"{spec.paper_minsts:.1f}"]
            for spec in SUITE.values()]
    print(analysis.table(["name", "category", "paper Minst"], rows,
                         "Table 2 — Mediabench stand-in suite"))


def _validate_simulate_args(args) -> None:
    """Bounds-check numeric flags with actionable messages."""
    if args.length < 1:
        raise ConfigError(
            f"--length must be a positive instruction count, "
            f"got {args.length}")
    if args.comm_latency < 1:
        raise ConfigError(
            f"--comm-latency must be >= 1 cycle, got {args.comm_latency} "
            f"(the paper sweeps 1-4)")
    interval = getattr(args, "metrics_interval", None)
    if interval is not None and interval < 1:
        raise ConfigError(
            f"--metrics-interval must be >= 1 cycle, got {interval}")
    _validate_sampling_args(args)


def _validate_sampling_args(args) -> None:
    """Bounds-check the sampled-simulation flags (simulate only).

    A sampling flag without ``--sample-interval`` is a usage error, not
    silently ignored; with it, unset flags take their defaults here.
    """
    sample_interval = getattr(args, "sample_interval", None)
    if sample_interval is None:
        for flag in ("sample_warmup", "samples"):
            if getattr(args, flag, None) is not None:
                raise ConfigError(
                    f"--{flag.replace('_', '-')} only applies to sampled "
                    f"runs; add --sample-interval")
        return
    if args.sample_warmup is None:
        args.sample_warmup = SAMPLE_WARMUP_DEFAULT
    if args.samples is None:
        args.samples = SAMPLES_DEFAULT
    if sample_interval < 1:
        raise ConfigError(
            f"--sample-interval must be >= 1 instruction, "
            f"got {sample_interval}")
    if args.sample_warmup < 0:
        raise ConfigError(
            f"--sample-warmup must be >= 0, got {args.sample_warmup}")
    if sample_interval <= args.sample_warmup:
        raise ConfigError(
            f"--sample-interval ({sample_interval}) must exceed "
            f"--sample-warmup ({args.sample_warmup}); the measured "
            f"region would otherwise be empty or biased")
    if args.samples < 1:
        raise ConfigError(f"--samples must be >= 1, got {args.samples}")
    for flag in ("trace_out", "metrics_out", "inject"):
        if getattr(args, flag, None):
            raise ConfigError(
                f"--{flag.replace('_', '-')} is not supported with "
                f"sampled runs: only the sample windows run in detail, "
                f"so the artifact would cover a fraction of the stream")
    if getattr(args, "profile", False):
        raise ConfigError("--profile is not supported with sampled runs")


def _make_cli_config(args):
    return make_config(args.clusters, predictor=args.predictor,
                       steering=args.steering,
                       comm_latency=args.comm_latency,
                       comm_paths_per_cluster=args.paths)


def _open_trace_sink(path: str, config_label: str):
    """Pick a sink by file extension: .jsonl streams lines, anything
    else accumulates a Chrome trace-event object."""
    from .obs import ChromeTraceSink, JsonlSink
    if path.endswith(".jsonl"):
        return JsonlSink(path, config_label)
    return ChromeTraceSink(path, config_label)


def _cmd_simulate(args) -> None:
    _validate_simulate_args(args)
    if args.sample_interval is not None:
        _run_sampled_simulate(args)
        return
    fault_plan = FaultPlan.parse(args.inject) if args.inject else None
    trace = workload_trace(args.workload, args.length)
    config = _make_cli_config(args)
    tracer = None
    sink = None
    if args.trace_out:
        from .obs import EventTracer
        sink = _open_trace_sink(args.trace_out, config.describe())
        tracer = EventTracer(sink)
    metrics_interval = args.metrics_interval
    if metrics_interval is None and args.metrics_out:
        metrics_interval = 1000
    try:
        result = simulate(list(trace), config, check=args.check,
                          fault_plan=fault_plan, tracer=tracer,
                          metrics_interval=metrics_interval,
                          profile=args.profile)
    finally:
        # Flush buffered trace events even when the simulation raises:
        # the crash trace (deadlock snapshot, divergence) is exactly the
        # flight-recorder case the trace file exists for.
        if sink is not None:
            sink.close()
    print(result.summary())
    if tracer is not None:
        print(f"trace               : {tracer.total_events} events "
              f"-> {args.trace_out}")
    if result.metrics is not None:
        print()
        print(result.metrics.summary())
        if args.metrics_out:
            rows = analysis.interval_rows(result.metrics)
            if args.metrics_out.endswith(".csv"):
                analysis.to_csv(rows, args.metrics_out)
            else:
                analysis.to_json(rows, args.metrics_out)
            print(f"metrics             : {len(rows)} samples "
                  f"-> {args.metrics_out}")
    if result.profile is not None:
        print()
        print(result.profile.report())
    if args.check:
        print(f"golden check        : OK "
              f"({result.validation.get('golden_commits', 0)} commits, "
              f"{result.validation.get('golden_batches', 0)} batches)")
    report = result.validation.get("fault_report")
    if report is not None:
        print(f"faults injected     : {report.total_injected} "
              f"({result.validation.get('fault_plan', '')})")
        print(f"value detection     : {report.detected_values}/"
              f"{report.injected_values} "
              f"({report.detection_rate:.0%})")


def _run_sampled_simulate(args) -> None:
    """The --sample-interval branch of ``repro simulate``."""
    from .analysis.sampling import SamplingConfig
    from .workloads import build_workload
    sampling = SamplingConfig(interval=args.sample_interval,
                              warmup=args.sample_warmup,
                              samples=args.samples)
    program = build_workload(args.workload)
    config = _make_cli_config(args)
    result = simulate(program, config, max_instructions=args.length,
                      check=args.check, sampling=sampling,
                      workload_name=args.workload)
    print(result.summary())
    if args.check:
        print("golden check        : OK (every sample window "
              "co-simulated)")


def _cmd_checkpoint(args) -> None:
    from .core import (read_snapshot_meta, restore_executor,
                       save_executor)
    if args.ckpt_action == "info":
        meta = read_snapshot_meta(args.path)
        print(f"schema   : {meta.schema} v{meta.version}")
        print(f"kind     : {meta.kind}")
        print(f"seq      : {meta.seq}")
        if meta.kind == "machine":
            print(f"cycle    : {meta.cycle}")
            print(f"committed: {meta.committed_insts}")
            print(f"config   : {meta.config_sha256}")
        print(f"sha256   : {meta.sha256}")
        for key, value in sorted(meta.extra.items()):
            print(f"extra.{key}: {value}")
        return
    if args.ckpt_action == "save":
        from .isa.executor import FunctionalExecutor
        from .workloads import build_workload
        if args.at < 0:
            raise ConfigError(f"--at must be >= 0, got {args.at}")
        if args.at >= args.max_insts:
            raise ConfigError(
                f"--at ({args.at}) must lie before the run cap "
                f"--max-insts ({args.max_insts})")
        executor = FunctionalExecutor(build_workload(args.workload),
                                      args.max_insts)
        done = executor.skip(args.at)
        if done < args.at:
            raise ConfigError(
                f"{args.workload} halts after {done} instructions, "
                f"before the requested position {args.at}")
        meta = save_executor(args.out, executor,
                             extra={"workload": args.workload,
                                    "position": executor.seq})
        print(f"checkpoint: {args.workload} @ {meta.seq} -> {args.out} "
              f"(sha256 {meta.sha256[:12]}…)")
        return
    # resume
    if args.run < 1:
        raise ConfigError(f"--run must be >= 1, got {args.run}")
    meta = read_snapshot_meta(args.path)
    if meta.kind != "executor":
        raise ConfigError(
            f"{args.path} holds a {meta.kind!r} snapshot; 'checkpoint "
            f"resume' replays executor checkpoints (use the Python API "
            f"restore_processor for machine snapshots)")
    executor = restore_executor(args.path)
    config = _make_cli_config(args)
    executor.max_instructions = executor.seq + args.run
    result = simulate(executor.run(), config,
                      max_instructions=args.run)
    print(f"resumed {meta.extra.get('workload', '?')} @ {meta.seq} "
          f"for {args.run} detailed instructions")
    print(result.summary())


def _cmd_trace(args) -> None:
    _validate_simulate_args(args)
    if args.count < 1:
        raise ConfigError(f"--count must be >= 1, got {args.count}")
    from .obs import EventTracer, ListSink
    config = _make_cli_config(args)
    trace = list(workload_trace(args.workload, args.length))
    sink = ListSink()
    simulate(trace, config, tracer=EventTracer(sink))
    timeline = analysis.timeline_from_events(sink.events)
    print(analysis.render_timeline(timeline, args.first_seq, args.count))
    if args.out:
        with _open_trace_sink(args.out, config.describe()) as chrome:
            for event in sink.events:
                chrome.append(event)
        print(f"\nfull trace ({len(sink.events)} events) "
              f"written to {args.out}")


def _make_monitor(args):
    """A SweepMonitor when any telemetry flag asks for one, else None."""
    from .obs import SweepMonitor
    progress = getattr(args, "progress", False)
    telemetry_out = getattr(args, "telemetry_out", None)
    receipt_out = getattr(args, "receipt_out", None)
    if not (progress or telemetry_out or receipt_out):
        return None
    return SweepMonitor(progress=progress, jsonl_path=telemetry_out)


def _finish_monitor(args, monitor, cache=None, label=None) -> None:
    """Close the sinks; write the receipt when ``--receipt-out`` asked.

    Runs in the command's ``finally`` block, so an interrupted run
    still flushes its partial telemetry log (the receipt, by contrast,
    only makes sense for a run that finished its sweeps).
    """
    if monitor is None:
        return
    monitor.close()
    telemetry_out = getattr(args, "telemetry_out", None)
    if telemetry_out:
        print(f"telemetry: {len(monitor.events)} events "
              f"-> {telemetry_out}")
    receipt_out = getattr(args, "receipt_out", None)
    if receipt_out and monitor.sweeps:
        from .analysis.provenance import RunReceipt
        receipt = RunReceipt.from_monitor(
            monitor, label=label, cache_enabled=cache is not None)
        receipt.write(receipt_out)
        print(f"receipt: {receipt.counts['cells']} cells "
              f"({receipt.counts['simulated']} simulated) "
              f"-> {receipt_out}")


def _cmd_campaign(args) -> None:
    from .obs import use_monitor
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be >= 1, got {args.seeds}")
    if not 0.0 < args.rate <= 1.0:
        raise ConfigError(
            f"--rate must be in (0, 1], got {args.rate}")
    monitor = _make_monitor(args)
    try:
        with use_monitor(monitor):
            subset = (None if args.workloads is None
                      else selected_workloads(args.workloads))
            result = run_fault_campaign(workloads=subset,
                                        seeds=tuple(range(args.seeds)),
                                        length=args.length, rate=args.rate,
                                        jobs=args.jobs)
    finally:
        _finish_monitor(args, monitor)
    report = format_campaign(result)
    print(report)
    path = args.output or os.path.join("results",
                                       "robustness_campaign.txt")
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(report + "\n")
    print(f"\nreport written to {path}")
    if result.failures or result.detection_rate < 1.0:
        raise SimulationError(
            f"campaign found problems: {len(result.failures)} failed "
            f"cell(s), detection rate {result.detection_rate:.0%}")


def _cmd_cache(args) -> None:
    from .analysis.cache import DEFAULT_CACHE_DIR, ResultCache, resolve_cache
    cache = resolve_cache(args.cache_dir)
    if cache is None:
        cache = ResultCache(DEFAULT_CACHE_DIR)
    if args.action == "stats":
        print(cache.describe())
    else:
        removed = cache.clear()
        print(f"removed {removed} entr{'y' if removed == 1 else 'ies'} "
              f"from {cache.root}")


def _cmd_figure(args) -> None:
    from .analysis.cache import resolve_cache, use_cache
    from .analysis.parallel import WorkerPool
    from .obs import use_monitor
    names = ABLATIONS if args.command == "ablations" else (args.command,)
    subset = selected_workloads(args.workloads)
    # resolve_cache already folds in the REPRO_CACHE opt-in, so pinning
    # its result via use_cache only makes the command's cache explicit
    # (and gives one object whose hit/miss counters we can report).
    cache = resolve_cache(args.cache_dir)
    monitor = _make_monitor(args)
    # One pool for the whole command: the ablations group reuses warm
    # workers instead of paying interpreter startup per table; one
    # monitor for the whole command, so the receipt aggregates every
    # sweep the command ran.
    try:
        with WorkerPool(args.jobs), use_cache(cache), \
                use_monitor(monitor):
            for index, name in enumerate(names):
                if index:
                    print()
                rows = run_experiment(EXPERIMENTS[name], subset,
                                      args.length, jobs=args.jobs)
                print(render(EXPERIMENTS[name], rows))
    finally:
        _finish_monitor(args, monitor, cache=cache, label=args.command)
    if cache is not None:
        print(f"cache: {cache.stats.render()} in {cache.root}")


def _cmd_report(args) -> None:
    import pathlib

    from .analysis import perf_report
    from .analysis.provenance import RunReceipt
    from .obs.schema import validate_receipt
    if not 0.0 < args.threshold < 1.0:
        raise ConfigError(
            f"--threshold must be a fraction in (0, 1), "
            f"got {args.threshold}")
    bench = args.bench
    if bench is None:
        bench = (pathlib.Path(__file__).resolve().parents[2]
                 / "BENCH_sweep.json")
    history = perf_report.load_history(bench)
    receipts = []
    for path in args.receipt:
        try:
            receipt = RunReceipt.read(path)
            validate_receipt(receipt)
        except (OSError, ValueError) as error:
            raise ConfigError(f"bad receipt {path}: {error}") from None
        receipts.append(receipt)
    markdown = perf_report.render_dashboard(history, receipts,
                                            threshold=args.threshold)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(markdown)
        print(f"dashboard ({len(history)} entries, {len(receipts)} "
              f"receipts) -> {args.out}")
    else:
        print(markdown, end="")
    regressions = perf_report.find_regressions(history,
                                               threshold=args.threshold)
    if regressions:
        summary = "; ".join(
            f"{flag['benchmark']} at {flag.get('commit') or 'unknown'} "
            f"down {flag['drop']:.1%}" for flag in regressions)
        print(f"regressions: {summary}", file=sys.stderr)
        if args.fail_on_regression:
            raise SimulationError(
                f"{len(regressions)} throughput regression(s) exceed "
                f"the {args.threshold:.0%} threshold")


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    0 — success; 1 — the simulation failed (divergence, deadlock,
    campaign regression); 2 — usage error (bad flag bounds, unknown
    workload, malformed fault spec).
    """
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list-workloads":
            _cmd_list_workloads()
        elif args.command == "simulate":
            _cmd_simulate(args)
        elif args.command == "trace":
            _cmd_trace(args)
        elif args.command == "campaign":
            _cmd_campaign(args)
        elif args.command == "cache":
            _cmd_cache(args)
        elif args.command == "checkpoint":
            _cmd_checkpoint(args)
        elif args.command == "report":
            _cmd_report(args)
        else:
            _cmd_figure(args)
    except (ConfigError, WorkloadError) as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE_ERROR
    except SimulationError as error:
        print(f"simulation error: {error}", file=sys.stderr)
        return EXIT_SIMULATION_ERROR
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
