"""The experiment table end to end on a tiny workload subset.

Every entry runs through the runner, the renderer, ``to_csv`` and its
CLI subcommand; the per-entry cases check the rows' shapes and keys.
The figure-level shape assertions live in benchmarks/bench_figures.py.
"""

import csv
import io

import pytest

from repro.analysis import (ABLATIONS, EXPERIMENTS, average, pct_change,
                            render, run_experiment, run_one,
                            selected_workloads, to_csv, trace_length)
from repro.analysis.experiments import HEADLINE_PAPER
from repro.cli import main
from repro.errors import WorkloadError

from .conftest import LEN, TINY


class TestEnvKnobs:
    def test_trace_length_default_and_override(self, monkeypatch):
        assert trace_length() == 12_000
        monkeypatch.setenv("REPRO_TRACE_LEN", "777")
        assert trace_length() == 777

    def test_selected_workloads_default_is_suite(self):
        assert len(selected_workloads()) == 15

    def test_selected_workloads_subset(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKLOADS", "cjpeg, pgpenc")
        assert selected_workloads() == ["cjpeg", "pgpenc"]

    def test_selected_workloads_unknown_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKLOADS", "nope")
        with pytest.raises(ValueError, match="nope"):
            selected_workloads()

    def test_explicit_subset_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKLOADS", "nope")
        assert selected_workloads("gsmdec") == ["gsmdec"]

    def test_empty_subset_rejected(self, monkeypatch):
        with pytest.raises(WorkloadError, match="--workloads names no"):
            selected_workloads(" , ")
        monkeypatch.setenv("REPRO_WORKLOADS", ",")
        with pytest.raises(WorkloadError, match="REPRO_WORKLOADS names no"):
            selected_workloads()

    def test_runner_rejects_empty_and_unknown_lists(self):
        with pytest.raises(WorkloadError, match="names no"):
            run_experiment(EXPERIMENTS["headline"], [], LEN)
        with pytest.raises(WorkloadError, match="bogus"):
            run_experiment(EXPERIMENTS["headline"], ["bogus"], LEN)


class TestRunOne:
    def test_returns_simresult(self):
        result = run_one("rawcaudio", 1, length=2500)
        assert result.stats.committed_insts == 2500

    def test_overrides_reach_config(self):
        result = run_one("rawcaudio", 4, predictor="stride",
                         steering="vpb", length=2500, comm_latency=2)
        assert result.config.comm_latency == 2


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_entry_end_to_end(name, experiment_rows, experiment_cache, capsys):
    exp = EXPERIMENTS[name]
    rows = experiment_rows(name)
    assert rows and all(isinstance(row, dict) for row in rows)
    text = render(exp, rows)
    assert exp.note in text
    parsed = list(csv.DictReader(io.StringIO(to_csv(rows))))
    assert len(parsed) == len(rows)
    assert list(parsed[0]) == list(rows[0])
    # The subcommand runs the same cells (all cache hits) and prints
    # exactly the rendered table.
    capsys.readouterr()
    assert main([name, "--workloads", ",".join(TINY), "--length", str(LEN),
                 "--cache-dir", str(experiment_cache.root)]) == 0
    out = capsys.readouterr().out
    table, cache_line = out.rsplit("\n", 2)[:2]
    assert table == text
    assert cache_line.startswith("cache: ") and "0 miss(es)" in cache_line


def test_ablations_group_prints_its_entries(experiment_rows,
                                            experiment_cache, capsys):
    expected = "\n\n".join(render(EXPERIMENTS[name], experiment_rows(name))
                           for name in ABLATIONS)
    capsys.readouterr()
    assert main(["ablations", "--workloads", ",".join(TINY), "--length",
                 str(LEN), "--cache-dir", str(experiment_cache.root)]) == 0
    assert capsys.readouterr().out.startswith(expected + "\ncache: ")


class TestDrivers:
    def test_figure2_shape(self, experiment_rows):
        rows = experiment_rows("figure2")
        assert {row["benchmark"] for row in rows} == set(TINY)
        assert {(row["clusters"], row["predict"]) for row in rows} == {
            (n, p) for n in (1, 2, 4) for p in (False, True)}
        assert average(rows, "ipc", clusters=1, predict=False) > 0
        assert isinstance(pct_change(
            average(rows, "ipc", clusters=4, predict=False),
            average(rows, "ipc", clusters=4, predict=True)), float)

    def test_figure4_latency_monotone_keys(self, experiment_rows):
        rows = {row["config"]: row for row in experiment_rows("figure4a")}
        assert set(rows) == {"2c no-predict", "2c predict",
                             "4c no-predict", "4c predict"}
        series = rows["4c no-predict"]
        assert series["1"] >= series["4"]

    def test_figure4_bandwidth_unbounded_key(self, experiment_rows):
        rows = {row["config"]: row for row in experiment_rows("figure4b")}
        assert "unbounded" in rows["2c predict"]

    def test_figure5_accuracy_fields(self, experiment_rows):
        rows = experiment_rows("figure5")
        assert [row["entries"] for row in rows] == [
            64, 256, 1024, 4096, 16384, 131072]
        for row in rows:
            assert 0 <= row["confident_fraction"] <= 1
            assert 0 <= row["hit_ratio"] <= 1

    def test_ablation_rename2_rows(self, experiment_rows):
        rows = experiment_rows("ablation-rename2")
        assert {row["scheme"] for row in rows} == {"rename-1-cycle",
                                                   "rename-2-cycle"}

    def test_headline_metrics_complete(self, experiment_rows):
        rows = experiment_rows("headline")
        assert [row["metric"] for row in rows] == list(HEADLINE_PAPER)
        assert all(isinstance(row["measured"], float) for row in rows)

    def test_robustness_fixes_its_lengths(self, experiment_rows):
        rows = experiment_rows("robustness")
        assert {row["trace length"] for row in rows} == {6_000, 12_000}
        assert len(rows) == 2 * len(HEADLINE_PAPER)

    def test_input_sensitivity_runs_both_datasets(self, experiment_rows):
        rows = experiment_rows("input-sensitivity")
        assert [row["dataset"] for row in rows] == ["test", "train"]
        assert rows[0]["IPC 1c"] != rows[1]["IPC 1c"]
