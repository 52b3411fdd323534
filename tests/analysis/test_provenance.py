"""Run receipts: schema validity, honest cache accounting, and
byte-identity of the deterministic view between serial and parallel
executions of the same sweep.
"""

import json
import os
import re

import pytest

from repro.analysis.cache import ResultCache
from repro.analysis.experiments import ErrorLedger
from repro.analysis.parallel import SweepCell, run_cells
from repro.analysis.provenance import RunReceipt, git_commit, host_info
from repro.core import make_config
from repro.obs.schema import (RECEIPT_SCHEMA, TraceSchemaError,
                              validate_receipt)
from repro.obs.telemetry import SweepMonitor, use_monitor

LEN = 300


@pytest.fixture(autouse=True)
def _pretend_two_cores(monkeypatch):
    """Keep jobs=2 paths genuinely parallel on single-core CI hosts."""
    real = os.cpu_count()
    monkeypatch.setattr(os, "cpu_count", lambda: max(2, real or 1))


def _cells():
    return [SweepCell(key=(name, n), workload=name, n_clusters=n,
                      predictor="stride", steering="vpb", length=LEN)
            for name in ("rawcaudio", "gsmdec") for n in (1, 2)]


def _receipt_for(jobs: int) -> RunReceipt:
    with use_monitor(SweepMonitor()) as monitor:
        run_cells(_cells(), jobs=jobs)
        return RunReceipt.from_monitor(monitor)


def _cell(n_clusters, **overrides):
    return SweepCell(key=(n_clusters, tuple(overrides)),
                     workload="rawcaudio",
                     n_clusters=n_clusters, predictor="stride",
                     steering="vpb", length=LEN,
                     overrides=SweepCell.pack_overrides(overrides))


class TestProvenanceHelpers:
    def test_config_sha256_ignores_override_spelling(self):
        # An override equal to the preset's value resolves to the same
        # machine, so it hashes alike.
        default = make_config(4).comm_latency
        a = _cell(4).config().sha256()
        b = _cell(4, comm_latency=default).config().sha256()
        assert a == b and re.fullmatch(r"[0-9a-f]{64}", a)

    def test_config_sha256_distinguishes_machines(self):
        assert _cell(2).config().sha256() != _cell(4).config().sha256()

    def test_invalid_config_hashes_to_none(self):
        cells = [_cell(4), _cell(-3)]
        with use_monitor(SweepMonitor()) as monitor:
            run_cells(cells, jobs=1, ledger=ErrorLedger())
            receipt = RunReceipt.from_monitor(monitor).to_dict()
        valid, invalid = receipt["cells"]
        assert re.fullmatch(r"[0-9a-f]{64}", valid["config_sha256"])
        assert invalid["config_sha256"] is None
        assert invalid["ok"] is False
        assert receipt["counts"]["failed"] == 1
        validate_receipt(receipt)

    def test_receipt_config_sha256_is_pinned(self):
        """Receipt hashes are stable across releases: the values for
        Table 1's 4-cluster stride/VPB machine, with and without a
        4-cycle wire, and its 2-cluster sibling."""
        cells = [_cell(4), _cell(4, comm_latency=4), _cell(2)]
        with use_monitor(SweepMonitor()) as monitor:
            run_cells(cells, jobs=1)
            receipt = RunReceipt.from_monitor(monitor).to_dict()
        assert [cell["config_sha256"] for cell in receipt["cells"]] == [
            "1d86e9f5418444b7a8f4e9eae9256eda57f53c407c11817dcd41f90837cd0a51",
            "273235373cd1649a9325bbbc8eed78984101c6a893043207ce169d8781d66026",
            "4b508ad56e21d4fc98e2e851a48d0dc5c8969fa17ed97a3dc0a4b90cfe14a09b",
        ]

    def test_git_commit_shape(self):
        commit = git_commit()
        if commit is not None:
            assert re.fullmatch(r"[0-9a-f]{7,40}(-dirty)?", commit)

    def test_git_commit_outside_checkout_is_none(self, tmp_path):
        assert git_commit(tmp_path) is None

    def test_host_info_fields(self):
        info = host_info()
        assert set(info) == {"platform", "python", "cpu_count"}


class TestRunReceipt:
    def test_receipt_validates_and_counts(self):
        receipt = _receipt_for(jobs=1)
        data = receipt.to_dict()
        assert validate_receipt(data) == 4
        assert data["schema"] == RECEIPT_SCHEMA
        assert data["counts"] == {"cells": 4, "completed": 4,
                                  "failed": 0, "simulated": 4}
        assert data["cache"]["enabled"] is False
        for cell in data["cells"]:
            assert re.fullmatch(r"[0-9a-f]{64}", cell["config_sha256"])

    def test_deterministic_view_byte_identical_serial_vs_parallel(self):
        serial = _receipt_for(jobs=1).deterministic_dict()
        parallel = _receipt_for(jobs=2).deterministic_dict()
        assert (json.dumps(serial, sort_keys=True)
                == json.dumps(parallel, sort_keys=True))

    def test_deterministic_view_strips_volatile_fields(self):
        receipt = _receipt_for(jobs=1)
        data = receipt.deterministic_dict()
        assert "host" not in data and "created_utc" not in data
        assert "run" not in data and "commit" not in data
        for cell in data["cells"]:
            assert "seconds" not in cell and "stored" not in cell

    def test_write_and_read_roundtrip(self, tmp_path):
        receipt = _receipt_for(jobs=1)
        path = tmp_path / "nested" / "run_receipt.json"
        receipt.write(path)
        loaded = RunReceipt.read(path)
        assert loaded == receipt.to_dict()
        assert validate_receipt(str(path)) == 4
        # No temp-file debris from the atomic write.
        assert [p.name for p in path.parent.iterdir()] \
            == ["run_receipt.json"]

    def test_sweeps_argument_scopes_the_receipt(self):
        with use_monitor(SweepMonitor()) as monitor:
            run_cells(_cells()[:2], jobs=1, label="first")
            run_cells(_cells()[2:], jobs=1, label="second")
            scoped = RunReceipt.from_monitor(
                monitor, sweeps=[monitor.sweeps[1]])
            aggregate = RunReceipt.from_monitor(monitor)
        assert scoped.label == "second"
        assert scoped.counts["cells"] == 2
        assert aggregate.counts["cells"] == 4
        assert aggregate.run["sweeps"] == 2

    def test_cache_counters_match_simulate_calls(self, tmp_path):
        cells = _cells()
        cache = ResultCache(tmp_path / "cache")
        with use_monitor(SweepMonitor()) as monitor:
            run_cells(cells, jobs=1, cache=cache)
            cold = RunReceipt.from_monitor(
                monitor, cache_enabled=True,
                sweeps=[monitor.sweeps[-1]])
        assert cold.cache == {"enabled": True, "hits": 0,
                              "misses": 4, "stores": 4}
        assert cold.counts["simulated"] == 4
        with use_monitor(SweepMonitor()) as monitor:
            run_cells(cells, jobs=1, cache=cache)
            warm = RunReceipt.from_monitor(
                monitor, cache_enabled=True,
                sweeps=[monitor.sweeps[-1]])
        assert warm.cache == {"enabled": True, "hits": 4,
                              "misses": 0, "stores": 0}
        assert warm.counts["simulated"] == 0
        validate_receipt(cold.to_dict())
        validate_receipt(warm.to_dict())

    def test_validator_rejects_dishonest_counters(self):
        data = _receipt_for(jobs=1).to_dict()
        data["cache"]["enabled"] = True
        data["cache"]["hits"] = 3  # claims hits that never happened
        with pytest.raises(TraceSchemaError, match="hits"):
            validate_receipt(data)

    def test_validator_rejects_missing_section(self):
        data = _receipt_for(jobs=1).to_dict()
        del data["counts"]
        with pytest.raises(TraceSchemaError, match="counts"):
            validate_receipt(data)
