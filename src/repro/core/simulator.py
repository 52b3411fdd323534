"""Top-level simulation entry points.

:func:`simulate` is the one-call API: give it a program (or a
pre-executed trace) and a configuration, get a :class:`SimResult`.

Typical use::

    from repro import make_config, simulate
    from repro.workloads import build_workload

    program = build_workload("cjpeg")
    result = simulate(program, make_config(4, predictor="stride",
                                           steering="vpb"))
    print(result.summary())

With ``check=True`` the run is co-simulated against a golden model
that replays the committed stream (docs/ROBUSTNESS.md); ``fault_plan``
enables the seeded fault-injection harness.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, List, Optional, Union

from ..isa.executor import FunctionalExecutor
from ..isa.instruction import DynInst
from ..isa.program import Program
from .config import ProcessorConfig
from .processor import Processor

__all__ = ["simulate"]

Traceable = Union[Program, Iterable[DynInst], List[DynInst]]


def simulate(workload: Traceable, config: ProcessorConfig,
             max_instructions: int = 1_000_000,
             max_cycles: Optional[int] = None,
             check: bool = False,
             fault_plan=None,
             tracer=None,
             metrics_interval: Optional[int] = None,
             profile: bool = False,
             sampling=None,
             workload_name: Optional[str] = None):
    """Simulate *workload* on the processor described by *config*.

    Args:
        workload: a :class:`Program` (executed functionally on the fly)
            or an iterable of :class:`DynInst` (e.g. a cached trace,
            reused across configurations to keep comparisons aligned).
        config: processor configuration (see
            :func:`repro.core.config.make_config`).
        max_instructions: functional execution cap for programs.
        max_cycles: optional hard stop for the timing loop.
        check: co-simulate against the golden model; any divergence of
            the committed stream from the functional trace raises
            :class:`~repro.errors.DivergenceError`.
        fault_plan: a :class:`~repro.validation.faults.FaultPlan` to
            inject seeded faults; the resulting
            :class:`~repro.validation.faults.FaultReport` is attached
            to ``result.validation["fault_report"]``.
        tracer: a :class:`~repro.obs.EventTracer` receiving structured
            pipeline events (docs/OBSERVABILITY.md); None disables
            tracing entirely.
        metrics_interval: overrides ``config.metrics_interval`` when
            given; enables interval metric sampling every N cycles,
            attached as ``result.metrics``.
        profile: attribute host wall-clock time across simulator loop
            stages, attached as ``result.profile``.

        sampling: a :class:`~repro.analysis.sampling.SamplingConfig`;
            routes the run through interval sampling (functional
            fast-forward + detailed sample windows) and returns a
            :class:`~repro.analysis.sampling.SampledResult` instead of
            a :class:`SimResult`.
        workload_name: label recorded in sampled results; only
            meaningful with *sampling*.

    Every observer is strictly read-only: the committed stream and all
    ``SimStats`` fields are bit-identical with and without them.
    """
    if sampling is not None:
        # Lazy import: the sampling layer sits above the core.
        from ..analysis.sampling import simulate_sampled
        return simulate_sampled(workload, config, sampling,
                                max_instructions=max_instructions,
                                check=check, workload_name=workload_name)
    golden = None
    injector = None
    if check or fault_plan is not None:
        # Lazy import: repro.validation.campaign imports back into
        # repro.core, so the validation layer must not be a module-level
        # dependency of the core.
        from ..validation.faults import FaultInjector
        from ..validation.golden import GoldenModel
        if check:
            golden = GoldenModel(interval=config.golden_interval)
        if fault_plan is not None:
            fault_plan.validate()
            injector = FaultInjector(fault_plan)
    if metrics_interval is not None:
        config = dataclasses.replace(config,
                                     metrics_interval=metrics_interval)
        config.validate()
    profiler = None
    if profile:
        from ..obs.profiler import PhaseProfiler
        profiler = PhaseProfiler()
    executor = None
    if isinstance(workload, Program):
        executor = FunctionalExecutor(workload, max_instructions)
        trace = executor.run()
    else:
        trace = iter(workload)
    processor = Processor(config, trace, golden=golden, injector=injector,
                          tracer=tracer, profiler=profiler)
    # Kept reachable so repro.core.snapshot can capture the functional
    # stream's cursor alongside the machine state.
    processor.trace_executor = executor
    return processor.run(max_cycles=max_cycles)
