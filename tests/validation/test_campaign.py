"""Fault campaign dispatch: the report does not depend on how the
per-workload blocks were spread over worker processes, and every block
reports its own time whichever process ran it.
"""

import os

import pytest

from repro.analysis.parallel import WorkerPool
from repro.validation import format_campaign, run_fault_campaign

WORKLOADS = ("rawcaudio", "gsmdec")
LENGTH = 1_500


@pytest.fixture(autouse=True)
def _pretend_two_cores(monkeypatch):
    """Keep jobs=2 genuinely parallel on single-core hosts (resolve_jobs
    clamps to the core count)."""
    real = os.cpu_count()
    monkeypatch.setattr(os, "cpu_count", lambda: max(2, real or 1))


def _report(jobs=None):
    return format_campaign(run_fault_campaign(
        workloads=WORKLOADS, seeds=(0,), length=LENGTH, jobs=jobs))


def test_report_identical_serial_parallel_and_pooled():
    serial = _report(jobs=1)
    parallel = _report(jobs=2)
    with WorkerPool(2) as pool:
        pooled = _report()
        assert pool.started
    assert "FAILED" not in serial
    assert serial == parallel == pooled


def test_parallel_campaign_times_every_block():
    from repro.obs.telemetry import SweepMonitor, use_monitor
    with use_monitor(SweepMonitor()) as monitor:
        run_fault_campaign(workloads=WORKLOADS, seeds=(0,), kinds=("value",),
                           length=LENGTH, jobs=2)
    done = [event for event in monitor.events
            if event["event"] == "cell_done"]
    assert [event["key"] for event in done] == list(WORKLOADS)
    assert all(event["seconds"] > 0 for event in done)


def test_telemetry_record_carries_the_comm_latency_override():
    from repro.obs.telemetry import SweepMonitor, use_monitor
    with use_monitor(SweepMonitor()) as monitor:
        run_fault_campaign(workloads=WORKLOADS[:1], seeds=(0,),
                           kinds=("value",), length=LENGTH, comm_latency=4,
                           jobs=1)
    (record,) = monitor.sweeps[0].cells
    assert record.cell.overrides == (("comm_latency", 4),)
    assert record.cell.config().comm_latency == 4
