"""The experiment table, sweeps and reporting for every table/figure of
the paper."""

from .experiments import (ABLATIONS, EXPERIMENTS, ErrorLedger, Experiment,
                          LedgerEntry, Sweep, Variant, average, render,
                          run_experiment, run_one, selected_workloads,
                          trace_length)
from .cache import (CacheStats, ResultCache, active_cache, code_version,
                    default_cache, resolve_cache, use_cache)
from .export import interval_rows, to_csv, to_json
from .metrics import ipcr, mean, pct_change, suite_mean
from .perf_report import (BENCH_SCHEMA, append_entry, dedup_history,
                          find_regressions, load_history, normalize_entry,
                          render_dashboard, shape_key)
from .provenance import RunReceipt, config_sha256, git_commit, host_info
from .parallel import (CellFailure, CellOutcome, SweepCell, WorkerPool,
                       active_pool, cell_seed, is_transient_error,
                       resolve_chunksize, resolve_jobs,
                       resolve_trace_length, run_cells,
                       simulate_sweep_cell)
from .report import bar, table
from .sampling import (SampledResult, SampleWindow, SamplingConfig,
                       simulate_sampled)
from .timeline import (capture_timeline, pipeline_timeline,
                       render_timeline, timeline_from_events)

__all__ = [
    "ABLATIONS", "EXPERIMENTS", "Experiment", "Sweep", "Variant",
    "average", "render", "run_experiment",
    "ErrorLedger", "LedgerEntry", "run_one", "selected_workloads",
    "trace_length",
    "CellFailure", "CellOutcome", "SweepCell", "WorkerPool",
    "active_pool", "cell_seed",
    "is_transient_error", "resolve_chunksize", "resolve_jobs",
    "resolve_trace_length", "run_cells", "simulate_sweep_cell",
    "CacheStats", "ResultCache", "active_cache", "code_version",
    "default_cache", "resolve_cache", "use_cache",
    "BENCH_SCHEMA", "append_entry", "dedup_history", "find_regressions",
    "load_history", "normalize_entry", "render_dashboard", "shape_key",
    "RunReceipt", "config_sha256", "git_commit", "host_info",
    "ipcr", "mean", "pct_change", "suite_mean",
    "interval_rows", "to_csv", "to_json", "bar", "table",
    "capture_timeline", "pipeline_timeline",
    "render_timeline", "timeline_from_events",
    "SampledResult", "SampleWindow", "SamplingConfig", "simulate_sampled",
]
