"""Parallel sweep execution with deterministic worker seeding.

Every experiment-table entry decomposes into independent *cells* — one
(workload, configuration) simulation each — so a sweep is an
embarrassingly parallel map.  This module provides that map:

* :class:`SweepCell` — a fully explicit, picklable cell description.
  Workers receive *everything* through the cell (trace length, dataset,
  generation seed, config overrides); they never read ``os.environ``,
  so a sweep's outcome cannot depend on environment inherited at fork
  time or on which worker happens to execute which cell.
* :func:`run_cells` — executes a list of cells either serially (in
  process, sharing the trace cache) or across a
  :class:`~concurrent.futures.ProcessPoolExecutor`, with identical
  retry/ledger semantics on both paths.  Results are collected **in
  cell order**, so ledgers and result dictionaries are byte-identical
  regardless of completion order, worker count, chunk size, or cache
  state.
* :class:`WorkerPool` — a reusable executor shared across sweeps.  A
  4k-instruction cell simulates in a few hundred milliseconds, so
  paying worker-interpreter startup per table (and one
  pickle/IPC round-trip per cell, the default ``chunksize=1``) is what
  made ``jobs=2`` *slower* than serial in BENCH_sweep.json.  Enter one
  pool around a batch of experiments (``with WorkerPool(jobs):``) and
  every ``run_cells`` inside reuses its warm workers; cells are
  dispatched in chunks sized by :func:`resolve_chunksize`.
* :func:`resolve_jobs` / :func:`resolve_trace_length` /
  :func:`resolve_chunksize` — the only places that read the
  ``REPRO_JOBS`` / ``REPRO_TRACE_LEN`` / ``REPRO_CHUNKSIZE``
  environment knobs, validating them once at sweep setup (malformed
  values raise :class:`~repro.errors.ConfigError`, not a bare
  ``ValueError``).

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
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core import SimResult, make_config, simulate
from ..errors import (ConfigError, DeadlockError, DivergenceError,
                      ReproError, SimulationError, WorkloadError)
from ..obs.telemetry import SweepMonitor, active_monitor, use_monitor
from ..workloads import (DEFAULT_TRACE_LENGTH, build_workload,
                         workload_trace)
from .cache import ResultCache, default_cache
from .sampling import SamplingConfig, simulate_sampled

__all__ = ["SweepCell", "CellFailure", "CellOutcome", "WorkerPool",
           "active_pool", "cell_seed", "is_transient_error", "run_cells",
           "resolve_chunksize", "resolve_jobs", "resolve_trace_length",
           "simulate_sweep_cell"]


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


def resolve_chunksize(chunksize: Optional[int] = None, n_items: int = 0,
                      jobs: int = 1) -> int:
    """Resolve the per-dispatch cell chunk size once, at sweep setup.

    Explicit *chunksize* wins; otherwise ``REPRO_CHUNKSIZE`` is read and
    validated here.  With neither given, the heuristic splits the sweep
    into about four chunks per worker — large enough to amortize the
    pickle + IPC round-trip that dominated per-cell dispatch at the
    default ``chunksize=1`` (the BENCH_sweep.json ``speedup: 0.911``
    regression), small enough that a straggler chunk cannot idle the
    other workers for long.
    """
    if chunksize is None:
        raw = os.environ.get("REPRO_CHUNKSIZE")
        if raw is None:
            if jobs < 1 or n_items < 1:
                return 1
            return max(1, -(-n_items // (jobs * 4)))
        try:
            chunksize = int(raw)
        except ValueError:
            raise ConfigError(
                f"REPRO_CHUNKSIZE must be an integer cell count, "
                f"got {raw!r}") from None
    if chunksize < 1:
        raise ConfigError(f"chunk size must be >= 1, got {chunksize}")
    return chunksize


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

    def map(self, fn, items: Sequence, chunksize: Optional[int] = None
            ) -> list:
        """``map(fn, items)`` over the pool, in input order.

        Serial (``jobs=1``) pools run in-process; parallel pools
        dispatch *chunksize* items per worker round-trip
        (:func:`resolve_chunksize` when not given).
        """
        return list(self.imap(fn, items, chunksize=chunksize))

    def imap(self, fn, items: Sequence, chunksize: Optional[int] = None):
        """Lazy :meth:`map`: yields results in input order as they
        arrive, so callers (the sweep monitor's progress line) can
        observe completion without waiting for the whole batch."""
        if self._closed:
            raise ConfigError("worker pool is closed")
        if self.jobs <= 1 or len(items) <= 1:
            return (fn(item) for item in items)
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.jobs)
        chunksize = resolve_chunksize(chunksize, len(items), self.jobs)
        return self._executor.map(fn, items, chunksize=chunksize)

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


def cell_seed(workload: str, n_clusters: int, predictor: str,
              steering: str, length: int, salt: int = 0) -> int:
    """A deterministic 32-bit seed derived from a cell's identity.

    Campaigns that want decorrelated per-cell input data derive the
    seed from the cell coordinates (never from worker identity, RNG
    state, or submission order), so the same cell always receives the
    same seed in any process on any machine.
    """
    tag = f"{workload}|{n_clusters}|{predictor}|{steering}|{length}|{salt}"
    return zlib.crc32(tag.encode("ascii"))


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
        checkpoint_dir: optional directory for a shared
            :class:`~repro.core.snapshot.CheckpointStore`; sampled
            cells publish (and, without predictor warming, reuse)
            fast-forward checkpoints there.  Never part of the result's
            identity — it only affects speed.
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
    checkpoint_dir: Optional[str] = None

    @staticmethod
    def pack_overrides(overrides: Dict[str, Any]
                       ) -> Tuple[Tuple[str, Any], ...]:
        """Normalize an override dict into the tuple form."""
        return tuple(sorted(overrides.items()))

    @property
    def config_label(self) -> str:
        """The ledger's configuration label."""
        return f"{self.n_clusters}cl/{self.predictor}/{self.steering}"


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
    ``cache_stored`` reports that the *worker* entered the fresh result
    into the result cache — the parent folds these into its own cache
    counters, so ``repro cache stats`` and run receipts aggregate
    correctly under ``jobs>1`` (worker-process counters die with the
    worker).
    """

    key: Any
    result: Optional[SimResult] = None
    failures: List[CellFailure] = field(default_factory=list)
    seconds: float = 0.0
    cache_stored: bool = False


def simulate_sweep_cell(cell: SweepCell) -> SimResult:
    """Simulate one cell from its explicit description (no retries).

    This is the single simulation path shared by the serial and the
    parallel runners — and by :func:`repro.analysis.experiments.run_one`
    — so the three are metric-identical by construction.  Cells with a
    ``sampling`` config route through
    :func:`~repro.analysis.sampling.simulate_sampled` on the workload
    *program* (the trace is never materialized) and return a
    :class:`~repro.analysis.sampling.SampledResult`.
    """
    config = make_config(cell.n_clusters, predictor=cell.predictor,
                         steering=cell.steering, **dict(cell.overrides))
    if cell.sampling is not None:
        program = build_workload(cell.workload, dataset=cell.dataset,
                                 seed=cell.seed)
        return simulate_sampled(program, config, cell.sampling,
                                max_instructions=cell.length,
                                checkpoints=cell.checkpoint_dir,
                                workload_name=cell.workload,
                                dataset=cell.dataset, seed=cell.seed,
                                monitor=active_monitor())
    trace = workload_trace(cell.workload, cell.length,
                           dataset=cell.dataset, seed=cell.seed)
    return simulate(list(trace), config)


def _execute_cell(cell: SweepCell, retries: int) -> CellOutcome:
    """Run one cell with classified retries; never raises.

    Module-level (hence picklable) so it can serve as the worker
    function of a :class:`ProcessPoolExecutor`.  The cell carries every
    input explicitly; nothing here reads the environment.
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


#: Worker entry point: (cell, retries, cache_root, cache_key) tuple ->
#: CellOutcome.  The worker stores its own fresh result (parallelizing
#: the pickle+write I/O that the parent used to serialize after the
#: sweep) through a silent cache handle; the parent learns about the
#: store from ``outcome.cache_stored`` and folds it into the sweep
#: cache's counters.
def _pool_worker(item: Tuple[SweepCell, int, Optional[str], Optional[str]]
                 ) -> CellOutcome:
    cell, retries, cache_root, cache_key = item
    outcome = _execute_cell(cell, retries)
    if (cache_root is not None and cache_key is not None
            and outcome.result is not None):
        ResultCache(cache_root, notify=False).put(cache_key, outcome.result)
        outcome.cache_stored = True
    return outcome


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


def _note_outcome(monitor: Optional[SweepMonitor], index: int,
                  outcome: CellOutcome) -> None:
    """Report one freshly executed cell's outcome to the monitor."""
    if monitor is None:
        return
    for failure in outcome.failures:
        monitor.cell_retry(index, failure.attempt, failure.error_type)
    monitor.cell_done(index, seconds=outcome.seconds,
                      ok=outcome.result is not None,
                      stored=outcome.cache_stored)


def run_cells(cells: Sequence[SweepCell], jobs: Optional[int] = None,
              ledger=None, retries: int = 1,
              timings: Optional[Dict[Any, float]] = None,
              pool: Optional[WorkerPool] = None,
              cache: Optional[ResultCache] = None,
              chunksize: Optional[int] = None,
              label: str = "sweep",
              receipt_path=None) -> Dict[Any, SimResult]:
    """Execute *cells* and return ``{cell.key: SimResult}``.

    Args:
        cells: the sweep, in the order results (and ledger entries)
            should be recorded.
        jobs: worker processes; ``None`` defers to the active
            :class:`WorkerPool`'s count, then ``REPRO_JOBS`` (see
            :func:`resolve_jobs`); 1 runs serially in process.
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
        pool: a :class:`WorkerPool` to dispatch through; ``None`` uses
            the innermost ``with WorkerPool(...)`` block if any, else
            an ephemeral executor torn down when the call returns.
        cache: a :class:`~repro.analysis.cache.ResultCache`; ``None``
            defers to :func:`~repro.analysis.cache.default_cache`
            (``use_cache`` context, then the ``REPRO_CACHE`` opt-in).
            Cells found in the cache are never dispatched; workers
            store fresh successful results back themselves (the parent
            folds their store counts into the cache's counters).
        chunksize: cells per worker dispatch; ``None`` defers to
            ``REPRO_CHUNKSIZE``, then :func:`resolve_chunksize`'s
            about-four-chunks-per-worker heuristic.
        label: the sweep's telemetry label — names this sweep in
            progress lines, event logs and receipts.
        receipt_path: when given, a
            :class:`~repro.analysis.provenance.RunReceipt` covering
            exactly this sweep is written here (atomically) after the
            fold.

    Every execution path calls the same per-cell function, and outcomes
    are folded in submission order, so serial, parallel, and
    cache-assisted runs produce identical result dictionaries and
    identical ledgers.

    Telemetry: when a :func:`~repro.obs.telemetry.use_monitor` block is
    active (or *receipt_path* forces a private monitor), the run emits
    typed sweep events — ``sweep_start``, per-cell
    ``cell_start``/``cell_retry``/``cell_done`` (as results arrive, so
    progress is live), cache events from the pre-pass, and a
    ``sweep_done`` from a ``finally`` block so even an interrupted
    sweep flushes a terminal event to any JSONL sink.
    """
    monitor = active_monitor()
    if monitor is None and receipt_path is not None:
        # A receipt was requested with no ambient monitor: install a
        # silent private one so cache/sweep events have a destination.
        with use_monitor(SweepMonitor()) as monitor:
            return _run_cells_monitored(
                cells, jobs, ledger, retries, timings, pool, cache,
                chunksize, label, receipt_path, monitor)
    return _run_cells_monitored(cells, jobs, ledger, retries, timings,
                                pool, cache, chunksize, label,
                                receipt_path, monitor)


def _run_cells_monitored(cells: Sequence[SweepCell], jobs: Optional[int],
                         ledger, retries: int,
                         timings: Optional[Dict[Any, float]],
                         pool: Optional[WorkerPool],
                         cache: Optional[ResultCache],
                         chunksize: Optional[int], label: str,
                         receipt_path,
                         monitor: Optional[SweepMonitor]
                         ) -> Dict[Any, SimResult]:
    """The body of :func:`run_cells` (monitor already resolved)."""
    if pool is None:
        pool = active_pool()
    if jobs is None and pool is not None:
        jobs = pool.jobs
    jobs = resolve_jobs(jobs)
    if cache is None:
        cache = default_cache()

    # Cache pre-pass: resolve hits in the parent, dispatch only misses.
    outcomes: List[Optional[CellOutcome]] = [None] * len(cells)
    keys: List[Optional[str]] = [None] * len(cells)
    pending: List[int] = []
    if cache is not None:
        for index, cell in enumerate(cells):
            try:
                key = cache.key_for(cell)
            except Exception:
                # Invalid cell (e.g. bad config): uncacheable; let the
                # execution path produce the real, classified failure.
                key = None
            keys[index] = key
            hit = cache.get(key) if key is not None else None
            if hit is not None:
                outcomes[index] = CellOutcome(cell.key, result=hit)
            else:
                pending.append(index)
    else:
        pending = list(range(len(cells)))

    record = None
    if monitor is not None:
        chunk_used = (resolve_chunksize(chunksize, len(pending), jobs)
                      if jobs > 1 and len(pending) > 1 else 1)
        record = monitor.sweep_start(label, cells, jobs=jobs,
                                     chunksize=chunk_used)
        for index, outcome in enumerate(outcomes):
            if outcome is not None:
                monitor.cell_done(index, seconds=0.0, ok=True, cached=True)

    try:
        if pending:
            cache_root = str(cache.root) if cache is not None else None
            items = [(cells[index], retries, cache_root, keys[index])
                     for index in pending]
            if jobs <= 1 or len(items) <= 1:
                ran = []
                for position, item in enumerate(items):
                    if monitor is not None:
                        monitor.cell_start(pending[position])
                    outcome = _pool_worker(item)
                    ran.append(outcome)
                    _note_outcome(monitor, pending[position], outcome)
            else:
                if monitor is not None:
                    for index in pending:
                        monitor.cell_start(index)
                if pool is not None:
                    if monitor is not None and not pool.started:
                        monitor.worker_up(min(pool.jobs, len(items)))
                    stream = pool.imap(_pool_worker, items,
                                       chunksize=chunksize)
                    ran = []
                    for position, outcome in enumerate(stream):
                        ran.append(outcome)
                        _note_outcome(monitor, pending[position], outcome)
                else:
                    chunk = resolve_chunksize(chunksize, len(items), jobs)
                    workers = min(jobs, len(items))
                    if monitor is not None:
                        monitor.worker_up(workers)
                    with ProcessPoolExecutor(max_workers=workers) \
                            as executor:
                        ran = []
                        for position, outcome in enumerate(
                                executor.map(_pool_worker, items,
                                             chunksize=chunk)):
                            ran.append(outcome)
                            _note_outcome(monitor, pending[position],
                                          outcome)
                    if monitor is not None:
                        monitor.worker_down()
            for index, outcome in zip(pending, ran):
                outcomes[index] = outcome
                # Fold worker-side cache stores into the sweep cache's
                # counters (worker-process CacheStats die with the
                # worker).
                if cache is not None and outcome.cache_stored:
                    cache.stats.stores += 1
    finally:
        if monitor is not None:
            monitor.sweep_done()

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

    if receipt_path is not None and monitor is not None:
        from .provenance import RunReceipt
        RunReceipt.from_monitor(
            monitor, label=label, cache_enabled=cache is not None,
            sweeps=None if record is None else [record],
        ).write(receipt_path)
    return results
