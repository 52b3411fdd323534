"""Parallel sweep runner: serial/parallel equivalence, env validation,
classified retries, deterministic seeding.
"""

import os

import pytest

from repro.analysis.experiments import ErrorLedger
from repro.analysis.parallel import (SweepCell, WorkerPool, active_pool,
                                     is_transient_error,
                                     resolve_chunksize, resolve_jobs,
                                     resolve_trace_length, run_cells)
from repro.errors import (ConfigError, DeadlockError, DivergenceError,
                          SimulationError, WorkloadError)

LEN = 400


@pytest.fixture(autouse=True)
def _pretend_two_cores(monkeypatch):
    """Keep jobs=2 paths genuinely parallel on single-core CI hosts.

    resolve_jobs clamps to the real core count; without this the
    multi-worker tests would silently degrade to serial runs.  Tests
    of the clamp itself monkeypatch os.cpu_count again on top.
    """
    real = os.cpu_count()
    monkeypatch.setattr(os, "cpu_count", lambda: max(2, real or 1))


def _cells(include_failure=False):
    cells = [SweepCell(key=(name, n), workload=name, n_clusters=n,
                       length=LEN)
             for name in ("rawcaudio", "gsmdec") for n in (1, 2)]
    if include_failure:
        # An unknown workload fails deterministically (WorkloadError)
        # in whichever process executes it.
        cells.insert(1, SweepCell(key=("nope", 4), workload="nope",
                                  n_clusters=4, length=LEN))
    return cells


def _graceful_cells():
    return [SweepCell(key=(n, predictor), workload="rawcaudio",
                      n_clusters=n, predictor=predictor, steering=steering,
                      length=300)
            for n, predictor, steering in ((1, "none", "baseline"),
                                           (2, "stride", "vpb"))]


def _ipc(results):
    return {key: sim.ipc for key, sim in results.items()}


class TestSerialParallelEquivalence:
    def test_metrics_identical(self):
        cells = _cells()
        serial = run_cells(cells, jobs=1)
        parallel = run_cells(cells, jobs=2)
        assert list(serial.keys()) == list(parallel.keys())
        for key in serial:
            assert serial[key].to_dict() == parallel[key].to_dict()

    def test_ledgers_identical_with_forced_failure(self):
        cells = _cells(include_failure=True)
        serial_ledger, parallel_ledger = ErrorLedger(), ErrorLedger()
        serial = run_cells(cells, jobs=1, ledger=serial_ledger)
        parallel = run_cells(cells, jobs=2, ledger=parallel_ledger)
        # The failed cell is omitted from results, present in the ledger.
        assert ("nope", 4) not in serial
        assert list(serial.keys()) == list(parallel.keys())
        assert len(serial) == 4
        assert serial_ledger.entries == parallel_ledger.entries
        assert serial_ledger.failed_cells == [("nope", "4cl/none/baseline")]
        entry = serial_ledger.entries[0]
        assert entry.error_type == "WorkloadError"
        # Deterministic failure: exactly one attempt, despite retries=1.
        assert len(serial_ledger) == 1

    def test_failure_without_ledger_raises_typed_error(self):
        cells = [SweepCell(key="bad", workload="nope", n_clusters=2,
                           length=LEN)]
        with pytest.raises(WorkloadError, match="nope"):
            run_cells(cells, jobs=1)
        with pytest.raises(WorkloadError, match="nope"):
            run_cells([cells[0], cells[0]], jobs=2)

    def test_graceful_sweep_parallel_matches_serial(self):
        cells = _graceful_cells()
        serial_ledger, parallel_ledger = ErrorLedger(), ErrorLedger()
        serial = run_cells(cells, jobs=1, ledger=serial_ledger)
        parallel = run_cells(cells, jobs=2, ledger=parallel_ledger)
        assert _ipc(serial) == _ipc(parallel)
        assert serial_ledger.entries == parallel_ledger.entries


class TestChunkedDispatch:
    """The PR 2 regression: per-cell dispatch made jobs=2 slower than
    serial.  Chunking must not change any observable output."""

    def _wide_cells(self, n=36, include_failures=True):
        # >= 32 cells across several workloads/configs, with a couple of
        # deterministic failures sprinkled in so the ledger is exercised.
        names = ("rawcaudio", "gsmdec", "rawdaudio", "gsmenc")
        cells = [SweepCell(key=(name, n_clusters, repeat), workload=name,
                           n_clusters=n_clusters, length=LEN,
                           seed=repeat)
                 for name in names
                 for n_clusters in (1, 2, 4)
                 for repeat in range(3)][:n]
        if include_failures:
            cells.insert(5, SweepCell(key="bad-1", workload="nope",
                                      n_clusters=2, length=LEN))
            cells.insert(20, SweepCell(key="bad-2", workload="nope",
                                       n_clusters=4, length=LEN))
        return cells

    def test_chunked_parallel_bit_identical_to_serial(self):
        cells = self._wide_cells()
        assert len(cells) >= 32
        serial_ledger, parallel_ledger = ErrorLedger(), ErrorLedger()
        serial = run_cells(cells, jobs=1, ledger=serial_ledger)
        parallel = run_cells(cells, jobs=2, ledger=parallel_ledger)
        assert list(serial.keys()) == list(parallel.keys())
        for key in serial:
            assert serial[key].to_dict() == parallel[key].to_dict()
        assert serial_ledger.entries == parallel_ledger.entries

    def test_heuristic_four_chunks_per_worker(self):
        assert resolve_chunksize(48, 2) == 6
        assert resolve_chunksize(48, 6) == 2
        assert resolve_chunksize(3, 8) == 1
        assert resolve_chunksize(0, 0) == 1


class TestWorkerPool:
    def test_reused_pool_matches_serial_across_calls(self):
        cells = _cells()
        serial = run_cells(cells, jobs=1)
        with WorkerPool(jobs=2) as pool:
            first = run_cells(cells)
            second = run_cells(cells)
            assert pool.started  # one executor served both sweeps
        for key in serial:
            assert serial[key].to_dict() == first[key].to_dict()
            assert serial[key].to_dict() == second[key].to_dict()

    def test_context_registers_default_pool(self):
        assert active_pool() is None
        with WorkerPool(jobs=2) as pool:
            assert active_pool() is pool
            # Drivers pick the pool up without parameter threading.
            results = run_cells(_cells())
            assert pool.started
        assert active_pool() is None
        serial = run_cells(_cells(), jobs=1)
        for key in serial:
            assert serial[key].to_dict() == results[key].to_dict()

    def test_serial_pool_never_spawns_processes(self):
        with WorkerPool(jobs=1) as pool:
            run_cells(_cells())
            assert not pool.started

    def test_closed_pool_rejects_work(self):
        pool = WorkerPool(jobs=2)
        pool.close()
        with pytest.raises(ConfigError, match="closed"):
            pool.imap(len, [(1,), (2,)])

    def test_graceful_sweep_uses_active_pool(self):
        cells = _graceful_cells()
        serial_ledger, pooled_ledger = ErrorLedger(), ErrorLedger()
        serial = run_cells(cells, jobs=1, ledger=serial_ledger)
        with WorkerPool(jobs=2) as pool:
            pooled = run_cells(cells, ledger=pooled_ledger)
            assert pool.started
        assert _ipc(serial) == _ipc(pooled)
        assert serial_ledger.entries == pooled_ledger.entries


class TestEnvValidation:
    def test_malformed_trace_len_raises_config_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_LEN", "banana")
        with pytest.raises(ConfigError, match="REPRO_TRACE_LEN"):
            resolve_trace_length()

    def test_nonpositive_trace_len_raises_config_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_LEN", "0")
        with pytest.raises(ConfigError, match="positive"):
            resolve_trace_length()

    def test_explicit_length_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_LEN", "banana")
        assert resolve_trace_length(500) == 500

    def test_config_error_still_satisfies_value_error(self, monkeypatch):
        # Callers catching the historical bare ValueError keep working.
        monkeypatch.setenv("REPRO_TRACE_LEN", "banana")
        with pytest.raises(ValueError):
            resolve_trace_length()

    def test_jobs_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1

    def test_jobs_env_and_explicit(self, monkeypatch):
        import os
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs() == 3
        assert resolve_jobs(2) == 2  # explicit wins

    def test_jobs_zero_means_all_cores(self):
        import os
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_jobs_clamped_to_cpu_count(self, monkeypatch, caplog):
        import os
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        with caplog.at_level("WARNING", logger="repro.analysis.parallel"):
            assert resolve_jobs(16) == 2
        assert "clamping to 2" in caplog.text
        # A request within the machine stays untouched (and quiet).
        caplog.clear()
        with caplog.at_level("WARNING", logger="repro.analysis.parallel"):
            assert resolve_jobs(2) == 2
        assert not caplog.records

    def test_jobs_clamp_handles_unknown_cpu_count(self, monkeypatch):
        import os
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert resolve_jobs(4) == 1

    def test_malformed_jobs_raises_config_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ConfigError, match="REPRO_JOBS"):
            resolve_jobs()
        with pytest.raises(ConfigError, match=">= 0"):
            resolve_jobs(-1)


class TestErrorClassification:
    def test_deterministic_errors_not_transient(self):
        for error in (ConfigError("x"), WorkloadError("x"),
                      DivergenceError("x"), DeadlockError("x")):
            assert not is_transient_error(error)

    def test_base_simulation_error_is_transient(self):
        assert is_transient_error(SimulationError("hiccup"))
        assert is_transient_error(RuntimeError("foreign"))

    def test_deterministic_failure_is_not_retried(self, monkeypatch):
        from repro.analysis import parallel

        calls = {"n": 0}

        def poisoned(cell):
            calls["n"] += 1
            raise WorkloadError("deterministically broken")

        monkeypatch.setattr(parallel, "simulate_sweep_cell", poisoned)
        ledger = ErrorLedger()
        cells = [SweepCell(key="c", workload="rawcaudio", n_clusters=2,
                           length=LEN)]
        assert run_cells(cells, jobs=1, ledger=ledger, retries=3) == {}
        assert calls["n"] == 1  # no retries: the replay would fail alike
        assert len(ledger) == 1
        assert ledger.entries[0].error_type == "WorkloadError"

    def test_unknown_dataset_is_ledgered_once(self):
        ledger = ErrorLedger()
        cells = [SweepCell(key="c", workload="rawcaudio", n_clusters=1,
                           length=LEN, dataset="bogus")]
        assert run_cells(cells, jobs=1, ledger=ledger, retries=3) == {}
        assert [entry.error_type for entry in ledger.entries] \
            == ["WorkloadError"]

    def test_unknown_dataset_fails_fast_as_workload_error(self):
        cells = [SweepCell(key="c", workload="rawcaudio", n_clusters=1,
                           length=LEN, dataset="bogus")]
        with pytest.raises(WorkloadError, match="unknown dataset"):
            run_cells(cells, jobs=1)

    def test_bad_config_override_is_ledgered_once(self):
        ledger = ErrorLedger()
        cells = [SweepCell(key="c", workload="rawcaudio", n_clusters=4,
                           length=LEN,
                           overrides=(("comm_paths_per_cluster", 0),))]
        assert run_cells(cells, jobs=1, ledger=ledger, retries=3) == {}
        assert len(ledger) == 1
        assert ledger.entries[0].error_type == "ConfigError"


    def test_unknown_config_field_is_ledgered_once(self):
        ledger = ErrorLedger()
        cells = [SweepCell(key="c", workload="rawcaudio", n_clusters=2,
                           length=LEN, overrides=(("bogus_field", 1),))]
        assert run_cells(cells, jobs=1, ledger=ledger, retries=3) == {}
        assert [entry.error_type for entry in ledger.entries] \
            == ["ConfigError"]
        assert "bogus_field" in ledger.entries[0].message

    def test_unknown_config_field_fails_fast_as_config_error(self):
        cells = [SweepCell(key="c", workload="rawcaudio", n_clusters=2,
                           length=LEN, overrides=(("bogus_field", 1),))]
        with pytest.raises(ConfigError, match="bogus_field"):
            run_cells(cells, jobs=1)


class TestCellSeed:
    def test_seeded_cells_simulate_on_distinct_data(self):
        base = SweepCell(key="a", workload="rawcaudio", n_clusters=1,
                         length=LEN, seed=0)
        other = SweepCell(key="b", workload="rawcaudio", n_clusters=1,
                          length=LEN, seed=7)
        results = run_cells([base, other], jobs=1)
        # Same program structure, different input data: both complete.
        assert results["a"].stats.committed_insts > 0
        assert results["b"].stats.committed_insts > 0


class TestSweepTelemetry:
    """run_cells under an ambient SweepMonitor: identical event *sets*
    serial vs parallel, every cache store counted by the parent, one
    event log for the whole sweep, receipts written without an ambient
    monitor."""

    def _monitored_run(self, cells, jobs, cache=None):
        from repro.obs.telemetry import SweepMonitor, use_monitor
        with use_monitor(SweepMonitor()) as monitor:
            results = run_cells(cells, jobs=jobs, cache=cache)
        return results, monitor.events

    def test_event_sets_identical_serial_vs_parallel(self):
        from repro.obs.telemetry import normalize_events
        cells = _cells()
        serial_results, serial_events = self._monitored_run(cells, jobs=1)
        par_results, par_events = self._monitored_run(cells, jobs=2)
        assert normalize_events(serial_events) \
            == normalize_events(par_events)
        for key in serial_results:
            assert (serial_results[key].to_dict()
                    == par_results[key].to_dict())

    def test_retry_events_survive_the_parallel_fold(self):
        from repro.obs.telemetry import normalize_events
        cells = _cells(include_failure=True)
        ledgers = (ErrorLedger(), ErrorLedger())
        _, serial_events = self._monitored_run_with_ledger(
            cells, jobs=1, ledger=ledgers[0])
        _, par_events = self._monitored_run_with_ledger(
            cells, jobs=2, ledger=ledgers[1])
        assert normalize_events(serial_events) \
            == normalize_events(par_events)
        retries = [event for event in serial_events
                   if event["event"] == "cell_retry"]
        assert retries and retries[0]["error"] == "WorkloadError"

    def _monitored_run_with_ledger(self, cells, jobs, ledger):
        from repro.obs.telemetry import SweepMonitor, use_monitor
        with use_monitor(SweepMonitor()) as monitor:
            results = run_cells(cells, jobs=jobs, ledger=ledger)
        return results, monitor.events

    def test_worker_cache_stores_fold_into_parent_stats(self, tmp_path):
        from repro.analysis.cache import ResultCache
        cells = _cells()
        cache = ResultCache(tmp_path / "cache")
        run_cells(cells, jobs=2, cache=cache)
        # The parent stores each fresh result as it arrives, so its
        # counters see every store whichever process simulated the cell.
        assert cache.stats.stores == len(cells)
        assert cache.stats.misses == len(cells)
        assert cache.stats.hits == 0
        warm = run_cells(cells, jobs=2, cache=cache)
        assert cache.stats.hits == len(cells)
        assert cache.stats.stores == len(cells)  # nothing re-stored
        assert len(warm) == len(cells)

    def test_cached_parallel_event_set_matches_serial(self, tmp_path):
        from repro.analysis.cache import ResultCache
        from repro.obs.telemetry import normalize_events
        cells = _cells()
        serial_cache = ResultCache(tmp_path / "serial")
        par_cache = ResultCache(tmp_path / "parallel")
        _, serial_events = self._monitored_run(cells, jobs=1,
                                               cache=serial_cache)
        _, par_events = self._monitored_run(cells, jobs=2,
                                            cache=par_cache)
        assert normalize_events(serial_events) \
            == normalize_events(par_events)
        stores = [event for event in par_events
                  if event["event"] == "cache_store"]
        assert len(stores) == len(cells)

    def test_receipt_path_without_ambient_monitor(self, tmp_path):
        from repro.obs.schema import validate_receipt
        path = tmp_path / "run_receipt.json"
        run_cells(_cells(), jobs=1, label="standalone",
                  receipt_path=path)
        assert validate_receipt(str(path)) == 4
        import json
        receipt = json.loads(path.read_text())
        assert receipt["label"] == "standalone"
        assert receipt["counts"]["simulated"] == 4

    def test_sampled_windows_are_logged_by_the_parent(self, tmp_path):
        import json
        from repro.analysis.sampling import SamplingConfig
        from repro.obs.schema import validate_telemetry_jsonl
        from repro.obs.telemetry import (SweepMonitor, normalize_events,
                                         use_monitor)
        plan = SamplingConfig(interval=500, warmup=100, samples=4)
        cells = [SweepCell(key=f"{name}.{n}", workload=name, n_clusters=n,
                           length=20_000, sampling=plan)
                 for name in ("cjpeg", "gsmdec") for n in (1, 2)]
        normalized = []
        for jobs in (1, 2):
            path = tmp_path / f"jobs{jobs}.jsonl"
            with SweepMonitor(jsonl_path=str(path)) as monitor, \
                    use_monitor(monitor):
                run_cells(cells, jobs=jobs, label="sampled")
            assert validate_telemetry_jsonl(str(path)) == len(monitor.events)
            on_disk = [json.loads(line)
                       for line in path.read_text().splitlines()[1:]]
            seqs = [event["seq"] for event in on_disk]
            assert seqs == sorted(set(seqs))
            assert len(on_disk) == len(monitor.events)
            windows = [event for event in monitor.events
                       if event["event"] == "sample_window"]
            assert len(windows) == 4 * len(cells)
            assert ({(event["label"], event["key"]) for event in windows}
                    == {("sampled", cell.key) for cell in cells})
            normalized.append(normalize_events(monitor.events))
        assert normalized[0] == normalized[1]

    def test_jobs_other_than_the_active_pool_get_their_own_pool(self):
        from repro.obs.telemetry import SweepMonitor, use_monitor
        serial = run_cells(_cells(), jobs=1)
        with WorkerPool(jobs=1) as pool, \
                use_monitor(SweepMonitor()) as monitor:
            results = run_cells(_cells(), jobs=2)
            assert not pool.started
        assert monitor.sweep.jobs == 2
        assert [event["jobs"] for event in monitor.events
                if event["event"] == "worker_up"] == [2]
        assert any(event["event"] == "worker_down"
                   for event in monitor.events)
        for key in serial:
            assert serial[key].to_dict() == results[key].to_dict()

    def test_sweep_done_emitted_even_when_a_cell_raises(self):
        from repro.obs.telemetry import SweepMonitor, use_monitor
        cells = [SweepCell(key="bad", workload="nope", n_clusters=2,
                           length=LEN)]
        with use_monitor(SweepMonitor()) as monitor:
            with pytest.raises(WorkloadError):
                run_cells(cells, jobs=1)
        names = [event["event"] for event in monitor.events]
        assert names[-1] == "sweep_done"
