"""Synthetic Mediabench-like workload suite (the paper's Table 2).

The paper's Alpha Mediabench binaries are unavailable; each program here
is a µRISC stand-in composed from the kernels its original spends time
in (see DESIGN.md §3 for the substitution argument).  The suite registry
lives in :mod:`repro.workloads.suite`; parametric microbenchmarks for
tests and ablations live in :mod:`repro.workloads.synthetic`.
"""

from .stats import trace_statistics
from .suite import (DATASET_OFFSETS, DEFAULT_TRACE_LENGTH, SUITE,
                    TRACE_CACHE_MAX, WorkloadSpec, build_workload,
                    clear_trace_cache, workload_names, workload_trace)

__all__ = ["DATASET_OFFSETS", "DEFAULT_TRACE_LENGTH", "SUITE",
           "TRACE_CACHE_MAX", "WorkloadSpec", "build_workload",
           "clear_trace_cache", "trace_statistics", "workload_names",
           "workload_trace"]
