"""Parallel sweep execution with deterministic worker seeding.

Every experiment-table entry decomposes into independent *cells* — one
(workload, configuration) simulation each — so a sweep is an
embarrassingly parallel map.  This module provides that map:

* :class:`SweepCell` — a fully explicit, picklable cell description.
  Workers receive *everything* through the cell (trace length, dataset,
  generation seed, config overrides); they never read ``os.environ``,
  so a sweep's outcome cannot depend on environment inherited at fork
  time or on which worker happens to execute which cell.
* :func:`run_cells` — executes a list of cells with classified retries
  and returns their results **in cell order**, so ledgers and result
  dictionaries are byte-identical regardless of completion order,
  worker count or cache state.
* :func:`dispatch` — the one loop every sweep (``run_cells`` and the
  fault campaign) runs through.  Workers only compute: each turns one
  input into one outcome.  The parent process stores fresh results in
  the cache, emits every telemetry event and folds the outcomes, in
  cell order.
* :class:`WorkerPool` — a reusable executor shared across sweeps.  A
  4k-instruction cell simulates in a few hundred milliseconds, so
  paying worker-interpreter startup per table (and one
  pickle/IPC round-trip per cell) is what made ``jobs=2`` *slower*
  than serial in BENCH_sweep.json.  Enter one pool around a batch of
  experiments (``with WorkerPool(jobs):``) and every sweep inside
  reuses its warm workers (:func:`sweep_pool` gives the rule); cells
  are dispatched in chunks sized by :func:`resolve_chunksize`.
* :func:`resolve_jobs` / :func:`resolve_trace_length` — the only places
  that read the ``REPRO_JOBS`` / ``REPRO_TRACE_LEN`` environment knobs,
  validating them once at sweep setup (malformed values raise
  :class:`~repro.errors.ConfigError`, not a bare ``ValueError``).

Repeated sweeps can additionally skip simulation entirely via the
opt-in content-addressed result cache (``repro.analysis.cache``):
``run_cells`` looks every cell up before dispatching, runs only the
misses, and stores their results — hits and misses are counted on the
cache object and surfaced by the CLI and benchmarks.

Failure handling: the simulator is deterministic, so a cell that failed
with a *deterministic* error (bad configuration, unknown workload,
golden-model divergence, deadlock) is ledgered immediately — replaying
it would fail identically and double the wall-clock cost of the slowest
failures.
Only errors not known to be deterministic (the transient bucket:
harness hiccups, injected-fault trips) are retried.
"""

from __future__ import annotations

import logging
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import (Any, Callable, Dict, Iterator, List, Optional,
                    Sequence, Tuple)

from ..core import ProcessorConfig, SimResult, make_config, simulate
from ..errors import (ConfigError, DeadlockError, DivergenceError,
                      ReproError, SimulationError, WorkloadError)
from ..obs.telemetry import SweepMonitor, SweepTelemetry, active_monitor
from ..workloads import (DEFAULT_TRACE_LENGTH, build_workload,
                         workload_trace)
from .cache import ResultCache, cell_key, default_cache
from .sampling import SampledResult, SamplingConfig, simulate_sampled

__all__ = ["SweepCell", "CellFailure", "CellOutcome", "WorkerPool",
           "active_pool", "dispatch", "is_transient_error",
           "run_cells", "resolve_chunksize", "resolve_jobs",
           "resolve_trace_length", "simulate_sweep_cell", "sweep_pool"]


#: Error types whose failures are deterministic replays: the simulator
#: and the workload generators are seeded and deterministic, so these
#: fail identically on retry and are ledgered immediately.
DETERMINISTIC_ERRORS = (ConfigError, WorkloadError, DivergenceError,
                        DeadlockError)


def is_transient_error(error: BaseException) -> bool:
    """True when retrying *error* could plausibly change the outcome.

    Deterministic error types (:data:`DETERMINISTIC_ERRORS`) always
    replay identically; everything else — including the base
    :class:`~repro.errors.SimulationError`, which fault-injection and
    harness-level hiccups raise — stays in the retryable bucket.
    """
    return not isinstance(error, DETERMINISTIC_ERRORS)


def resolve_trace_length(length: Optional[int] = None,
                         default: int = DEFAULT_TRACE_LENGTH) -> int:
    """Resolve the per-cell trace length exactly once, at sweep setup.

    Explicit *length* wins; otherwise ``REPRO_TRACE_LEN`` is read and
    validated here (and only here), so worker processes never consult
    the environment.  A malformed or non-positive value raises
    :class:`~repro.errors.ConfigError`.
    """
    if length is not None:
        if length < 1:
            raise ConfigError(
                f"trace length must be a positive instruction count, "
                f"got {length}")
        return length
    raw = os.environ.get("REPRO_TRACE_LEN")
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(
            f"REPRO_TRACE_LEN must be an integer instruction count, "
            f"got {raw!r}") from None
    if value < 1:
        raise ConfigError(
            f"REPRO_TRACE_LEN must be positive, got {value}")
    return value


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve the sweep worker count once, at sweep setup.

    Explicit *jobs* wins; ``jobs=0`` (or ``REPRO_JOBS=0``) means "all
    cores".  With neither given, the sweep runs serially (1 job) — the
    historical behaviour.  A request above the machine's core count is
    clamped to it (with a logged warning): oversubscribed workers just
    time-slice one another, which adds scheduler churn and pickle
    queues without adding throughput (the BENCH_sweep.json
    ``jobs=2``-on-one-core entries measured exactly that).  Malformed
    values raise :class:`~repro.errors.ConfigError`.
    """
    if jobs is None:
        raw = os.environ.get("REPRO_JOBS")
        if raw is None:
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            raise ConfigError(
                f"REPRO_JOBS must be an integer job count, "
                f"got {raw!r}") from None
    if jobs < 0:
        raise ConfigError(f"job count must be >= 0, got {jobs}")
    cores = os.cpu_count() or 1
    if jobs == 0:
        jobs = cores
    elif jobs > cores:
        logging.getLogger(__name__).warning(
            "requested %d sweep jobs but only %d CPU core%s available; "
            "clamping to %d", jobs, cores, "" if cores == 1 else "s",
            cores)
        jobs = cores
    return jobs


def resolve_chunksize(n_items: int, jobs: int) -> int:
    """Cells per worker dispatch: about four chunks per worker.

    Large enough to amortize the pickle + IPC round-trip that dominated
    one-cell-per-dispatch sweeps (the BENCH_sweep.json
    ``speedup: 0.911`` regression), small enough that a straggler chunk
    cannot idle the other workers for long.  One job runs in process
    and takes the cells one at a time.
    """
    if jobs <= 1:
        return 1
    return max(1, -(-n_items // (jobs * 4)))


#: Stack of pools entered via ``with WorkerPool(...)`` (innermost last).
_POOL_STACK: List["WorkerPool"] = []


def active_pool() -> Optional["WorkerPool"]:
    """The innermost entered :class:`WorkerPool`, if any."""
    return _POOL_STACK[-1] if _POOL_STACK else None


class WorkerPool:
    """A reusable sweep executor shared across ``run_cells`` calls.

    Creating a :class:`~concurrent.futures.ProcessPoolExecutor` costs a
    Python interpreter startup (plus ``repro`` import) per worker; the
    paper tables each run a sweep of a few seconds, so paying that per
    table erased the parallel win.  A ``WorkerPool`` creates its
    executor lazily on first parallel use and keeps it warm until
    :meth:`close`; used as a context manager it also registers itself as
    the process-wide default, so every ``run_cells`` (and the fault
    campaign) inside the block shares it without parameter threading::

        with WorkerPool(jobs=4):
            fig2 = run_experiment(EXPERIMENTS["figure2"])  # starts workers
            fig3 = run_experiment(EXPERIMENTS["figure3"])  # reuses them
        # workers shut down here

    A pool resolved to ``jobs=1`` never spawns processes — every mapped
    call runs serially in-process, preserving the serial path's
    trace-cache sharing.
    """

    def __init__(self, jobs: Optional[int] = None) -> None:
        self.jobs = resolve_jobs(jobs)
        self._executor: Optional[ProcessPoolExecutor] = None
        self._closed = False

    @property
    def started(self) -> bool:
        """True once worker processes exist."""
        return self._executor is not None

    def imap(self, fn: Callable, items: Sequence) -> Iterator:
        """``map(fn, items)`` over the pool: results in input order,
        yielded as they arrive, so callers can fold and report each one
        without waiting for the whole batch.

        Serial (``jobs=1``) pools and single items run in process;
        otherwise the first call starts the workers and items travel in
        chunks of :func:`resolve_chunksize`.
        """
        if self._closed:
            raise ConfigError("worker pool is closed")
        if self.jobs <= 1 or len(items) <= 1:
            return map(fn, items)
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.jobs)
        return self._executor.map(
            fn, items, chunksize=resolve_chunksize(len(items), self.jobs))

    def close(self) -> None:
        """Shut the workers down (idempotent)."""
        self._closed = True
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def __enter__(self) -> "WorkerPool":
        _POOL_STACK.append(self)
        return self

    def __exit__(self, *exc) -> None:
        if _POOL_STACK and _POOL_STACK[-1] is self:
            _POOL_STACK.pop()
        self.close()


@contextmanager
def sweep_pool(jobs: Optional[int] = None,
               monitor: Optional[SweepMonitor] = None
               ) -> Iterator[WorkerPool]:
    """The pool a sweep asking for *jobs* workers runs on.

    The innermost ``with WorkerPool(...)`` block when *jobs* is ``None``
    or resolves to that pool's size; otherwise a temporary
    ``WorkerPool(jobs)``, closed on exit (emitting ``worker_down`` to
    *monitor* if it started workers).
    """
    pool = active_pool()
    if jobs is not None:
        jobs = resolve_jobs(jobs)
    if pool is not None and jobs in (None, pool.jobs):
        yield pool
        return
    pool = WorkerPool(jobs)
    try:
        yield pool
    finally:
        if monitor is not None and pool.started:
            monitor.worker_down()
        pool.close()


def dispatch(label: str, cells: Sequence, fn: Callable, work: Dict[int, Any],
             jobs: Optional[int], monitor: Optional[SweepMonitor],
             fold: Callable[[int, Any], None]
             ) -> Optional[SweepTelemetry]:
    """Run *fn* over the inputs in *work* and fold every result — the
    one dispatch loop every sweep goes through.

    *work* maps the index of a cell in *cells* to that cell's worker
    input, in cell order; cells missing from it were resolved by the
    caller (cache hits) and are reported as cached.  The pool comes
    from :func:`sweep_pool`.  Workers only compute: ``fold(index,
    result)`` runs in this process as each result arrives, in cell
    order, and it and this loop emit every telemetry event, so
    *monitor* sees the whole sweep under one ``seq`` counter whichever
    process computed it.  ``sweep_done`` fires from a ``finally``
    block, so an interrupted sweep still flushes a terminal event.
    Returns the monitor's record of the sweep (``None`` without a
    monitor).
    """
    record = None
    try:
        with sweep_pool(jobs, monitor) as pool:
            if monitor is not None:
                record = monitor.sweep_start(
                    label, cells, jobs=pool.jobs,
                    chunksize=resolve_chunksize(len(work), pool.jobs))
                for index in range(len(cells)):
                    if index in work:
                        monitor.cell_start(index)
                    else:
                        monitor.cell_done(index, cached=True)
            started = pool.started
            results = pool.imap(fn, list(work.values()))
            if monitor is not None and pool.started and not started:
                monitor.worker_up(pool.jobs)
            for index, result in zip(work, results):
                fold(index, result)
    finally:
        if record is not None:
            monitor.sweep_done()
    return record


@dataclass(frozen=True)
class SweepCell:
    """One fully explicit (workload, configuration) simulation.

    Attributes:
        key: caller-chosen hashable identifier used to index the result
            dictionary returned by :func:`run_cells`.
        workload: suite workload name.
        n_clusters: cluster count for :func:`~repro.core.make_config`.
        predictor / steering: scheme names.
        length: dynamic trace length — always explicit; resolve
            environment defaults with :func:`resolve_trace_length`
            *before* building cells.
        seed: explicit workload-generation seed (0 = the suite's
            canonical input data).
        dataset: workload input dataset ("test" / "train").
        overrides: extra :class:`~repro.core.ProcessorConfig` fields as
            a sorted tuple of (name, value) pairs, picklable by
            construction.
        sampling: when given (a frozen
            :class:`~repro.analysis.sampling.SamplingConfig`), the cell
            runs as a *sampled* simulation over ``length`` instructions
            and produces a
            :class:`~repro.analysis.sampling.SampledResult` instead of
            a :class:`~repro.core.SimResult`.  This is how
            million-instruction cells stay affordable inside sweeps.
    """

    key: Any
    workload: str
    n_clusters: int
    predictor: str = "none"
    steering: str = "baseline"
    length: int = DEFAULT_TRACE_LENGTH
    seed: int = 0
    dataset: str = "test"
    overrides: Tuple[Tuple[str, Any], ...] = ()
    sampling: Optional[SamplingConfig] = None

    @staticmethod
    def pack_overrides(overrides: Dict[str, Any]
                       ) -> Tuple[Tuple[str, Any], ...]:
        """Normalize an override dict into the tuple form."""
        return tuple(sorted(overrides.items()))

    @property
    def config_label(self) -> str:
        """The ledger's configuration label."""
        return f"{self.n_clusters}cl/{self.predictor}/{self.steering}"

    def config(self) -> ProcessorConfig:
        """The cell's machine: :func:`~repro.core.make_config` with the
        overrides applied.  The worker simulates it, and the cache key
        and the run receipt hash it; an invalid cell raises here."""
        return make_config(self.n_clusters, predictor=self.predictor,
                           steering=self.steering, **dict(self.overrides))


@dataclass(frozen=True)
class CellFailure:
    """One failed attempt at a cell, as recorded by a worker."""

    attempt: int
    error_type: str
    message: str


@dataclass
class CellOutcome:
    """Everything one cell's execution produced.

    ``result`` is ``None`` when every attempt failed; ``failures``
    lists the failed attempts in order (empty on first-try success).
    ``seconds`` is the worker-side wall-clock cost of the cell across
    all attempts (host profiling; no effect on simulated results).
    """

    key: Any
    result: Optional[SimResult] = None
    failures: List[CellFailure] = field(default_factory=list)
    seconds: float = 0.0


def simulate_sweep_cell(cell: SweepCell) -> SimResult:
    """Simulate one cell from its explicit description (no retries).

    This is the single simulation path shared by the serial and the
    parallel runners, so the two are metric-identical by construction.
    Cells with a ``sampling`` config route through
    :func:`~repro.analysis.sampling.simulate_sampled` on the workload
    *program* (the trace is never materialized) and return a
    :class:`~repro.analysis.sampling.SampledResult`.
    """
    config = cell.config()
    if cell.sampling is not None:
        program = build_workload(cell.workload, dataset=cell.dataset,
                                 seed=cell.seed)
        return simulate_sampled(program, config, cell.sampling,
                                max_instructions=cell.length,
                                workload_name=cell.workload)
    trace = workload_trace(cell.workload, cell.length,
                           dataset=cell.dataset, seed=cell.seed)
    return simulate(list(trace), config)


def _execute_cell(cell: SweepCell, retries: int) -> CellOutcome:
    """Run one cell with classified retries; never raises.

    The worker function of :func:`run_cells` (module-level, hence
    picklable).  The cell carries every input explicitly; nothing here
    reads the environment, the result cache or the monitor.
    """
    outcome = CellOutcome(cell.key)
    start = time.perf_counter()
    try:
        for attempt in range(1 + max(0, retries)):
            try:
                outcome.result = simulate_sweep_cell(cell)
                return outcome
            except Exception as error:  # noqa: BLE001 - sweeps survive
                outcome.failures.append(CellFailure(
                    attempt + 1, type(error).__name__, str(error)))
                if not is_transient_error(error):
                    return outcome  # deterministic: replay fails alike
        return outcome
    finally:
        outcome.seconds = time.perf_counter() - start


_ERROR_TYPES = {cls.__name__: cls for cls in
                (ConfigError, WorkloadError, SimulationError,
                 DivergenceError, DeadlockError, ReproError)}


def _raise_failure(cell: SweepCell, failure: CellFailure) -> None:
    """Re-raise a worker-side failure in the parent (fail-fast mode).

    Worker exceptions are transported as (type name, message) records —
    structured context does not survive pickling reliably — and
    reconstructed against the repro error taxonomy, falling back to
    :class:`SimulationError` for foreign types.
    """
    error_cls = _ERROR_TYPES.get(failure.error_type, SimulationError)
    raise error_cls(
        f"sweep cell {cell.workload} [{cell.config_label}] failed "
        f"after {failure.attempt} attempt(s): "
        f"{failure.error_type}: {failure.message}")


def _cache_key(cache: Optional[ResultCache], cell: SweepCell
               ) -> Optional[str]:
    """*cell*'s cache key; ``None`` without a cache, or for an invalid
    cell (e.g. bad config), which the execution path then reports as
    its real, classified failure."""
    if cache is None:
        return None
    try:
        return cell_key(cell)
    except Exception:
        return None


def run_cells(cells: Sequence[SweepCell], jobs: Optional[int] = None,
              ledger=None, retries: int = 1,
              timings: Optional[Dict[Any, float]] = None,
              cache: Optional[ResultCache] = None,
              label: str = "sweep",
              receipt_path=None) -> Dict[Any, SimResult]:
    """Execute *cells* and return ``{cell.key: SimResult}``.

    Args:
        cells: the sweep, in the order results (and ledger entries)
            should be recorded.
        jobs: worker processes; ``None`` defers to the active
            :class:`WorkerPool`'s count, then ``REPRO_JOBS`` (see
            :func:`sweep_pool` and :func:`resolve_jobs`); 1 runs
            serially in process.
        ledger: an :class:`~repro.analysis.experiments.ErrorLedger`.
            When given, failed cells are recorded there and omitted
            from the result dict; when ``None``, the first failure is
            re-raised (fail-fast, the experiment runner's behaviour).
        retries: extra attempts for cells failing with *transient*
            errors; deterministic failures are never retried.
        timings: optional dict receiving ``{cell.key: seconds}`` —
            each cell's worker-side wall-clock cost (all attempts),
            for sweep profiling (benchmarks/BENCH_sweep.json).  Cache
            hits report 0.0 (no simulation happened).
        cache: a :class:`~repro.analysis.cache.ResultCache`; ``None``
            defers to :func:`~repro.analysis.cache.default_cache`
            (``use_cache`` context, then the ``REPRO_CACHE`` opt-in).
            Cells found in the cache are never dispatched; each fresh
            successful result is stored as it arrives.
        label: the sweep's telemetry label — names this sweep in
            progress lines, event logs and receipts.
        receipt_path: when given, a
            :class:`~repro.analysis.provenance.RunReceipt` covering
            exactly this sweep is written here (atomically) after the
            fold.

    Every cell runs through the same per-cell function, and outcomes
    are folded in cell order, so serial, parallel, and cache-assisted
    runs produce identical result dictionaries and identical ledgers.

    Telemetry: when a :func:`~repro.obs.telemetry.use_monitor` block is
    active (or *receipt_path* forces a private monitor), the run emits
    typed sweep events — ``cache_hit``/``cache_miss`` from the lookup
    pass, then :func:`dispatch`'s ``sweep_start`` … ``sweep_done``
    with, per fresh cell as its result arrives, ``cell_retry``, one
    ``sample_window`` per window of a sampled cell, ``cache_store`` and
    ``cell_done``.
    """
    monitor = active_monitor()
    if monitor is None and receipt_path is not None:
        monitor = SweepMonitor()  # silent; the receipt is its only reader
    if cache is None:
        cache = default_cache()

    # Lookup pass: resolve hits here, dispatch only the misses.
    outcomes: List[Optional[CellOutcome]] = [None] * len(cells)
    keys = [_cache_key(cache, cell) for cell in cells]
    for index, (cell, key) in enumerate(zip(cells, keys)):
        hit = None if key is None else cache.get(key)
        if hit is not None:
            outcomes[index] = CellOutcome(cell.key, result=hit)
        if monitor is not None and key is not None:
            monitor.emit("cache_miss" if hit is None else "cache_hit",
                         key=key)
    work = {index: cell for index, cell in enumerate(cells)
            if outcomes[index] is None}

    def fold(index: int, outcome: CellOutcome) -> None:
        outcomes[index] = outcome
        result = outcome.result
        stored = result is not None and keys[index] is not None
        if stored:
            cache.put(keys[index], result)
        if monitor is None:
            return
        for failure in outcome.failures:
            monitor.cell_retry(index, failure.attempt, failure.error_type)
        if isinstance(result, SampledResult):
            for window in result.windows:
                monitor.emit("sample_window", label=label,
                             key=str(cells[index].key),
                             workload=result.workload, index=window.index,
                             start=window.start,
                             measured=window.measured_insts,
                             cycles=window.cycles, ipc=round(window.ipc, 6))
        monitor.cell_done(index, seconds=outcome.seconds,
                          ok=result is not None, stored=stored)

    record = dispatch(label, cells, partial(_execute_cell, retries=retries),
                      work, jobs, monitor, fold)

    results: Dict[Any, SimResult] = {}
    for cell, outcome in zip(cells, outcomes):
        if timings is not None:
            timings[cell.key] = outcome.seconds
        if ledger is not None:
            for failure in outcome.failures:
                ledger.record_failure(cell.workload, cell.config_label,
                                      failure.attempt, failure.error_type,
                                      failure.message)
        if outcome.result is not None:
            results[cell.key] = outcome.result
        elif ledger is None:
            _raise_failure(cell, outcome.failures[-1])

    if receipt_path is not None:
        from .provenance import RunReceipt
        RunReceipt.from_monitor(monitor, label=label,
                                cache_enabled=cache is not None,
                                sweeps=[record]).write(receipt_path)
    return results
