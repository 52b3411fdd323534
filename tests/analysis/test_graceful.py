"""Graceful-degradation tests: with a ledger, poisoned cells never kill
a ``run_cells`` sweep."""

import pytest

from repro.analysis import experiments, parallel
from repro.analysis.experiments import ErrorLedger
from repro.analysis.parallel import SweepCell, run_cells
from repro.errors import SimulationError, WorkloadError


def _poison(monkeypatch, poisoned):
    """Make every cell of one workload explode in the sweep runner."""
    real = parallel.simulate_sweep_cell

    def fake(cell):
        if cell.workload == poisoned:
            raise SimulationError("poisoned workload", cycle=123)
        return real(cell)
    monkeypatch.setattr(parallel, "simulate_sweep_cell", fake)


def _cells(workloads, configs):
    return [SweepCell(key=(name, f"{n}cl/{predictor}/{steering}"),
                      workload=name, n_clusters=n, predictor=predictor,
                      steering=steering, length=300)
            for name in workloads for n, predictor, steering in configs]


class TestCellRetries:
    def test_failure_lands_in_ledger_not_raised(self, monkeypatch):
        _poison(monkeypatch, "rawcaudio")
        ledger = ErrorLedger()
        results = run_cells(_cells(["rawcaudio"], [(4, "none", "baseline")]),
                            jobs=1, ledger=ledger, retries=1)
        assert results == {}
        assert len(ledger) == 2  # first attempt + one retry
        entry = ledger.entries[0]
        assert entry.workload == "rawcaudio"
        assert entry.error_type == "SimulationError"
        assert "poisoned" in entry.message

    def test_retry_once_recovers_transient_failures(self, monkeypatch):
        calls = {"n": 0}
        real = parallel.simulate_sweep_cell

        def flaky(cell):
            calls["n"] += 1
            if calls["n"] == 1:
                raise SimulationError("transient hiccup")
            return real(cell)

        monkeypatch.setattr(parallel, "simulate_sweep_cell", flaky)
        ledger = ErrorLedger()
        cells = _cells(["rawcaudio"], [(2, "none", "baseline")])
        results = run_cells(cells, jobs=1, ledger=ledger, retries=1)
        assert list(results) == [cells[0].key]
        assert calls["n"] == 2
        assert len(ledger) == 1  # the transient failure is still recorded
        assert ledger.entries[0].attempt == 1

    def test_success_leaves_ledger_clean(self):
        ledger = ErrorLedger()
        results = run_cells(_cells(["rawcaudio"], [(1, "none", "baseline")]),
                            jobs=1, ledger=ledger)
        assert len(results) == 1
        assert not ledger


class TestGracefulSweep:
    def test_poisoned_workload_does_not_abort_sweep(self, monkeypatch):
        _poison(monkeypatch, "gsmdec")
        ledger = ErrorLedger()
        results = run_cells(_cells(["rawcaudio", "gsmdec"],
                                   [(2, "stride", "vpb")]),
                            jobs=1, ledger=ledger)
        # The healthy cell completed; the poisoned one is ledgered.
        assert list(results) == [("rawcaudio", "2cl/stride/vpb")]
        assert ledger.failed_cells == [("gsmdec", "2cl/stride/vpb")]
        assert len(ledger) == 2  # attempt + retry

    def test_clean_sweep_has_empty_ledger(self):
        ledger = ErrorLedger()
        results = run_cells(_cells(["rawcaudio"], [(1, "none", "baseline")]),
                            jobs=1, ledger=ledger)
        assert len(results) == 1
        assert not ledger
        assert "clean" in ledger.render()

    def test_ledger_render_names_every_failure(self, monkeypatch):
        _poison(monkeypatch, "rawcaudio")
        ledger = ErrorLedger()
        run_cells(_cells(["rawcaudio"], [(4, "none", "baseline"),
                                         (4, "stride", "vpb")]),
                  jobs=1, ledger=ledger)
        text = ledger.render()
        assert "4cl/none/baseline" in text and "4cl/stride/vpb" in text
        assert "SimulationError" in text


class TestSelectedWorkloads:
    def test_unknown_env_subset_raises_workload_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKLOADS", "rawcaudio,nope")
        with pytest.raises(WorkloadError, match="nope"):
            experiments.selected_workloads()

    def test_workload_error_still_satisfies_value_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKLOADS", "nope")
        with pytest.raises(ValueError, match="nope"):
            experiments.selected_workloads()
