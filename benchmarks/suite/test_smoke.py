"""Each workload, tiny: set-up, a round, its checks and its metrics."""

import pytest

import worker
from cases import DetailedSerial, HeadlineSweep, Sampled1M, digest
from common import SPEC_PATH, load_json
from hostspeed import HostClock
from repro.analysis.sampling import SamplingConfig
from spans import NullRecorder

SPEC = load_json(SPEC_PATH)
END_TO_END = {metric["name"] for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"] for metric in SPEC["per_layer"]}


def tiny(name):
    return {
        "detailed-serial": lambda: DetailedSerial(
            programs=("cjpeg", "gsmdec"), length=300),
        "headline-sweep": lambda: HeadlineSweep(
            programs=("cjpeg", "gsmdec"), length=300),
        "sampled-1m": lambda: Sampled1M(
            programs=("gsmdec",), length=20_000,
            sampling=SamplingConfig(interval=300, warmup=50, samples=4)),
    }[name]()


NAMES = [workload["name"] for workload in SPEC["workloads"]]


@pytest.mark.parametrize("name", NAMES)
def test_round_is_correct_and_repeatable(name):
    workload = tiny(name)
    clock = HostClock(calibrated=False)
    workload.setup(1, NullRecorder())
    first = workload.run_round(NullRecorder(), clock)
    second = workload.run_round(NullRecorder(), clock)
    assert workload.check(second) == []
    assert first.failed == 0 and first.insts > 0
    assert len(first.cell_seconds) == len(first.results)
    # Uncalibrated, reference-host seconds are wall seconds.
    assert first.seconds == first.wall > 0
    assert digest(first.results) == digest(second.results)
    assert workload.sim_metrics(first.results)


@pytest.mark.parametrize("name", NAMES)
def test_untraced_run_reports_every_end_to_end_metric(name):
    report = worker.untraced_run(tiny(name), 0, 0, reference={})
    assert report["correct"], report["problems"]
    assert set(report["metrics"]) == END_TO_END
    assert all(value > 0 for value in report["metrics"].values())
    assert report["extra"]["rounds"] == worker.MIN_ROUNDS
    assert len(report["extra"]["host_speed_quartiles"]) == 3
    assert report["sim_digest_status"] == "no reference for this seed"


@pytest.mark.parametrize("name", ["detailed-serial", "headline-sweep"])
def test_traced_run_reports_every_per_layer_metric(name, tmp_path):
    workload = tiny(name)
    report = worker.traced_run(workload, 0, {}, tmp_path / "spans.json",
                               length=300, drain=1_000)
    assert report["correct"], report["problems"]
    assert PER_LAYER <= set(report["metrics"])
    assert (tmp_path / "spans.json").is_file()
    catalogue = report["extra"]["layer_catalogue"]
    assert catalogue["span.core.simulate.self_s"] > 0
    # No sim.* name carries two values.
    for metric, value in report["metrics"].items():
        assert catalogue.get(metric, value) == value, metric


def test_failed_sweep_cell_is_counted_not_fatal():
    workload = HeadlineSweep(programs=("cjpeg", "no-such-program"),
                             length=300)
    report = worker.untraced_run(workload, 0, 0, reference={})
    assert not report["correct"]
    # Two rounds of 12 cells, 6 of them failing in each.
    assert report["failed"] == 12 and report["attempted"] == 24
    assert report["fidelity"]["failed_frac"] == 0.5
    assert "6 cell(s) failed" in report["problems"]


def test_changed_results_are_named():
    workload = tiny("detailed-serial")
    workload.setup(0, NullRecorder())
    rnd = workload.run_round(NullRecorder(), HostClock(calibrated=False))
    sim = workload.sim_metrics(rnd.results)
    stale = dict(sim, **{"sim.ipc.cjpeg.1cl_none": 0.0})
    reference = {"sim_digest": {"0": {workload.name: {
        "digest": "0" * 64, "sim": stale}}}}
    report = worker.outcome(workload, [rnd], reference)
    assert report["sim_digest_status"] == "CHANGED"
    assert report["sim_changed"] == ["sim.ipc.cjpeg.1cl_none"]
    assert report["correct"]
