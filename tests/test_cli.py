"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_list_workloads(capsys):
    assert main(["list-workloads"]) == 0
    out = capsys.readouterr().out
    assert "cjpeg" in out and "encryption" in out


def test_simulate_prints_summary(capsys):
    code = main(["simulate", "rawcaudio", "--clusters", "2",
                 "--predictor", "stride", "--steering", "vpb",
                 "--length", "2000"])
    assert code == 0
    out = capsys.readouterr().out
    assert "IPC" in out and "communications/inst" in out


def test_simulate_with_interconnect_knobs(capsys):
    main(["simulate", "rawcaudio", "--length", "1500",
          "--comm-latency", "4", "--paths", "1"])
    assert "L4" in capsys.readouterr().out


def test_figure_command_with_subset(capsys):
    main(["figure2", "--workloads", "rawcaudio", "--length", "1500"])
    out = capsys.readouterr().out
    assert "Figure 2" in out and "AVERAGE" in out


def test_headline_with_subset(capsys):
    main(["headline", "--workloads", "rawcaudio", "--length", "1500"])
    assert "ipcr4_vpb" in capsys.readouterr().out


def test_unknown_workload_in_subset_rejected(capsys):
    assert main(["figure2", "--workloads", "bogus", "--length", "1000"]) == 2
    assert "unknown workloads in --workloads: ['bogus']" \
        in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["headline", "--workloads", ","],
    ["campaign", "--workloads", "bogus"],
    ["campaign", "--workloads", ","],
])
def test_bad_workload_subset_is_usage_error(argv, capsys):
    assert main(argv + ["--length", "500"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--workloads" in err


def test_empty_env_workload_subset_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_WORKLOADS", ",")
    assert main(["headline", "--length", "500"]) == 2
    err = capsys.readouterr().err
    assert "REPRO_WORKLOADS names no workload" in err
    assert "Traceback" not in err


def test_bad_simulate_workload_rejected():
    with pytest.raises(SystemExit):
        main(["simulate", "bogus"])


def test_parser_lists_all_commands():
    from repro.analysis import EXPERIMENTS
    parser = build_parser()
    text = parser.format_help()
    for command in (*EXPERIMENTS, "ablations", "simulate"):
        assert command in text


class TestCrashTraceFlush:
    """A simulation that dies mid-run must still leave a complete trace
    on disk: the buffered sinks are the flight recorder for exactly
    that crash."""

    def _crashing_simulate(self, events_before_crash=3):
        from repro.errors import SimulationError

        def fake(trace, config, tracer=None, **kwargs):
            for seq in range(events_before_crash):
                tracer.fetch(cycle=seq, seq=seq, pc=seq * 4)
            raise SimulationError("deadlock at cycle 3")

        return fake

    def test_jsonl_sink_flushed_when_simulate_raises(
            self, tmp_path, monkeypatch, capsys):
        import json
        monkeypatch.setattr("repro.cli.simulate",
                            self._crashing_simulate())
        out = tmp_path / "crash.jsonl"
        code = main(["simulate", "rawcaudio", "--length", "500",
                     "--trace-out", str(out)])
        assert code == 1
        assert "simulation error" in capsys.readouterr().err
        lines = out.read_text().splitlines()
        # Schema header plus every event emitted before the crash,
        # despite the JsonlSink's internal buffering.
        header = json.loads(lines[0])
        assert header["schema"] == "repro-trace-v1"
        assert len(lines) == 1 + 3
        assert [json.loads(line)["cycle"] for line in lines[1:]] \
            == [0, 1, 2]

    def test_chrome_sink_flushed_when_simulate_raises(
            self, tmp_path, monkeypatch):
        import json
        monkeypatch.setattr("repro.cli.simulate",
                            self._crashing_simulate())
        out = tmp_path / "crash.json"
        assert main(["simulate", "rawcaudio", "--length", "500",
                     "--trace-out", str(out)]) == 1
        doc = json.loads(out.read_text())
        # The Chrome trace accumulates in memory; without the flush the
        # file would not exist at all after a crash.
        assert doc["traceEvents"]

    def test_healthy_simulate_still_writes_trace(self, tmp_path, capsys):
        out = tmp_path / "ok.jsonl"
        assert main(["simulate", "rawcaudio", "--length", "500",
                     "--trace-out", str(out)]) == 0
        assert "events" in capsys.readouterr().out
        assert len(out.read_text().splitlines()) > 1


class TestCacheCli:
    def test_figure_cold_then_warm_via_cache_dir(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        argv = ["figure5", "--workloads", "rawcaudio", "--length",
                "1000", "--cache-dir", str(cache_dir)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "0 hit(s)" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "0 miss(es)" in warm and "0 hit(s)" not in warm
        # The figure table itself is identical either way.
        strip = lambda text: [line for line in text.splitlines()
                              if not line.startswith("cache:")]
        assert strip(cold) == strip(warm)

    def test_cache_stats_and_clear(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        main(["figure5", "--workloads", "rawcaudio", "--length", "1000",
              "--cache-dir", str(cache_dir)])
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir",
                     str(cache_dir)]) == 0
        stats = capsys.readouterr().out
        assert str(cache_dir) in stats
        assert main(["cache", "clear", "--cache-dir",
                     str(cache_dir)]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir",
                     str(cache_dir)]) == 0
        assert "0 entr" in capsys.readouterr().out

    def test_empty_cache_dir_is_usage_error(self, capsys):
        assert main(["cache", "stats", "--cache-dir", "   "]) == 2
        assert "error" in capsys.readouterr().err


def test_campaign_accepts_jobs_flag(tmp_path, capsys):
    code = main(["campaign", "--workloads", "rawcaudio", "--length",
                 "1500", "--seeds", "1", "--jobs", "2",
                 "--output", str(tmp_path / "report.txt")])
    assert code == 0
    assert "detection" in capsys.readouterr().out.lower()


class TestReportCli:
    """`repro report`: the perf-regression dashboard command."""

    @staticmethod
    def _bench_file(tmp_path, rates):
        import json
        entries = [{"benchmark": "smoke_guard", "commit": f"c{i:07d}",
                    "timestamp_utc": f"2026-08-0{i + 1}T00:00:00Z",
                    "cpu_count": 2, "cells": 16, "trace_length": 1500,
                    "serial_insts_per_second": rate}
                   for i, rate in enumerate(rates)]
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(entries))
        return path

    def test_report_renders_dashboard(self, tmp_path, capsys):
        bench = self._bench_file(tmp_path, [100_000.0])
        assert main(["report", "--bench", str(bench)]) == 0
        out = capsys.readouterr().out
        assert "# Sweep performance dashboard" in out
        assert "None detected." in out

    def test_report_flags_synthetic_25pct_regression(self, tmp_path,
                                                     capsys):
        bench = self._bench_file(tmp_path, [100_000.0, 75_000.0])
        assert main(["report", "--bench", str(bench)]) == 0
        captured = capsys.readouterr()
        assert "25.0%" in captured.out
        assert "down 25.0%" in captured.err
        # With --fail-on-regression the same drop is a failing exit.
        assert main(["report", "--bench", str(bench),
                     "--fail-on-regression"]) == 1

    def test_report_threshold_is_bounded(self, tmp_path, capsys):
        bench = self._bench_file(tmp_path, [100_000.0])
        assert main(["report", "--bench", str(bench),
                     "--threshold", "1.5"]) == 2
        assert "threshold" in capsys.readouterr().err

    def test_report_writes_markdown_file(self, tmp_path, capsys):
        bench = self._bench_file(tmp_path, [100_000.0])
        out = tmp_path / "dashboard.md"
        assert main(["report", "--bench", str(bench),
                     "--out", str(out)]) == 0
        assert "dashboard" in capsys.readouterr().out
        assert out.read_text().startswith("# Sweep performance dashboard")

    def test_report_includes_receipts(self, tmp_path, capsys):
        from repro.analysis.parallel import SweepCell, run_cells
        bench = self._bench_file(tmp_path, [100_000.0])
        receipt = tmp_path / "run_receipt.json"
        run_cells([SweepCell(key="r", workload="rawcaudio",
                             n_clusters=1, length=300)],
                  jobs=1, label="cli-receipt", receipt_path=receipt)
        assert main(["report", "--bench", str(bench),
                     "--receipt", str(receipt)]) == 0
        out = capsys.readouterr().out
        assert "## Run receipts" in out and "cli-receipt" in out

    def test_report_rejects_bad_receipt(self, tmp_path, capsys):
        bench = self._bench_file(tmp_path, [100_000.0])
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["report", "--bench", str(bench),
                     "--receipt", str(bad)]) == 2
        assert "bad receipt" in capsys.readouterr().err

    def test_report_rejects_truncated_history(self, tmp_path, capsys):
        bench = self._bench_file(tmp_path, [100_000.0, 90_000.0])
        bench.write_text(bench.read_text()[:-40])
        assert main(["report", "--bench", str(bench)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unreadable benchmark history")
        assert str(bench) in err


class TestTelemetryCli:
    """--progress / --telemetry-out / --receipt-out on sweep commands."""

    def test_figure_writes_telemetry_and_receipt(self, tmp_path, capsys):
        from repro.obs.schema import (validate_receipt,
                                      validate_telemetry_jsonl)
        telemetry = tmp_path / "events.jsonl"
        receipt = tmp_path / "receipt.json"
        code = main(["figure2", "--workloads", "rawcaudio", "--length",
                     "300", "--progress", "--telemetry-out",
                     str(telemetry), "--receipt-out", str(receipt)])
        assert code == 0
        captured = capsys.readouterr()
        assert "telemetry:" in captured.out
        assert "receipt:" in captured.out
        assert "[figure2]" in captured.err  # live progress lines
        assert validate_telemetry_jsonl(str(telemetry)) > 0
        assert validate_receipt(str(receipt)) == 6

    def test_campaign_telemetry_out(self, tmp_path, capsys):
        from repro.obs.schema import validate_telemetry_jsonl
        telemetry = tmp_path / "campaign.jsonl"
        code = main(["campaign", "--workloads", "rawcaudio", "--length",
                     "1000", "--seeds", "1",
                     "--telemetry-out", str(telemetry),
                     "--output", str(tmp_path / "campaign.txt")])
        assert code == 0
        assert validate_telemetry_jsonl(str(telemetry)) > 0
        events = telemetry.read_text()
        assert "fault-campaign" in events


class TestSampledSimulateCli:
    """`simulate --sample-interval` and its validation surface."""

    def test_sampled_simulate_prints_sampled_summary(self, capsys):
        code = main(["simulate", "cjpeg", "--clusters", "2",
                     "--predictor", "stride", "--steering", "vpb",
                     "--length", "40000", "--sample-interval", "500",
                     "--sample-warmup", "100", "--samples", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sampled run" in out
        assert "4 windows" in out
        assert "95% CI" in out

    def test_checkpoint_dir_is_populated(self, tmp_path, capsys):
        ckpts = tmp_path / "ckpts"
        code = main(["simulate", "cjpeg", "--length", "40000",
                     "--sample-interval", "500", "--sample-warmup",
                     "100", "--samples", "4", "--checkpoint-dir",
                     str(ckpts)])
        assert code == 0
        assert list(ckpts.glob("*.ckpt"))

    @pytest.mark.parametrize("extra", [
        ["--sample-interval", "0"],
        ["--sample-interval", "500", "--sample-warmup", "-1"],
        ["--sample-interval", "100", "--sample-warmup", "100"],
        ["--sample-interval", "500", "--samples", "0"],
        ["--checkpoint-dir", "/tmp/x"],          # without sampling
        ["--samples", "4", "--sample-warmup", "50"],
        ["--sample-warmup", "50"],
    ])
    def test_bad_sampling_flags_are_usage_errors(self, extra, capsys):
        code = main(["simulate", "cjpeg", "--length", "40000"] + extra)
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_sampling_rejects_trace_out(self, tmp_path, capsys):
        code = main(["simulate", "cjpeg", "--length", "40000",
                     "--sample-interval", "500",
                     "--trace-out", str(tmp_path / "t.jsonl")])
        assert code == 2

    def test_unwritable_checkpoint_dir_is_usage_error(self, capsys):
        code = main(["simulate", "cjpeg", "--length", "40000",
                     "--sample-interval", "500",
                     "--checkpoint-dir", "/proc/nope"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestCheckpointCli:
    """The `repro checkpoint save/info/resume` surface."""

    def _save(self, tmp_path, capsys):
        path = tmp_path / "wl.ckpt"
        code = main(["checkpoint", "save", "cjpeg", "--at", "5000",
                     "--out", str(path)])
        assert code == 0
        capsys.readouterr()
        return path

    def test_save_then_info(self, tmp_path, capsys):
        path = self._save(tmp_path, capsys)
        assert main(["checkpoint", "info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "repro-snapshot-v1" in out
        assert "executor" in out
        assert "cjpeg" in out

    def test_save_then_resume(self, tmp_path, capsys):
        path = self._save(tmp_path, capsys)
        code = main(["checkpoint", "resume", str(path), "--run", "2000",
                     "--clusters", "2", "--predictor", "stride",
                     "--steering", "vpb"])
        assert code == 0
        assert "IPC" in capsys.readouterr().out

    def test_resume_refuses_machine_snapshot_mismatch(self, tmp_path,
                                                      capsys):
        bogus = tmp_path / "not-a-snapshot"
        bogus.write_text("junk\n")
        code = main(["checkpoint", "info", str(bogus)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_save_beyond_trace_end_is_usage_error(self, tmp_path, capsys):
        code = main(["checkpoint", "save", "cjpeg", "--at", "999999999",
                     "--out", str(tmp_path / "x.ckpt"),
                     "--max-insts", "10000"])
        assert code == 2
        assert "error:" in capsys.readouterr().err
