"""Unit tests for interval sampling: window placement, the harmonic
IPC estimator, validation, and the sampled simulation loop."""

import gc
import hashlib
import json
import math
import weakref

import pytest

from repro.analysis import sampling
from repro.analysis.sampling import (SampledResult, SampleWindow,
                                     SamplingConfig, simulate_sampled)
from repro.core import make_config, simulate
from repro.errors import ConfigError
from repro.isa.executor import FunctionalExecutor
from repro.workloads import build_workload

CONFIG = make_config(2, predictor="stride", steering="vpb")


# ------------------------------------------------------- window placement --

class TestWindowStarts:
    def test_mid_stratum_centring(self):
        sc = SamplingConfig(interval=1200, warmup=200, samples=4)
        starts = sc.window_starts(100_000)
        # stride 25_000, window 1_400, slack split evenly: offset 11_800.
        assert starts == [11_800, 36_800, 61_800, 86_800]

    def test_windows_never_overlap_strata(self):
        sc = SamplingConfig(interval=1000, warmup=500, samples=16)
        starts = sc.window_starts(1_000_000)
        stride = 1_000_000 // 16
        for i, start in enumerate(starts):
            assert i * stride <= start
            assert start + 1_500 <= (i + 1) * stride

    def test_explicit_targets_override_spread(self):
        sc = SamplingConfig(interval=100, targets=(10, 5_000, 90_000))
        assert sc.window_starts(100_000) == [10, 5_000, 90_000]

    def test_targets_beyond_the_run_are_dropped(self):
        sc = SamplingConfig(interval=100, targets=(10, 99_999, 200_000))
        assert sc.window_starts(100_000) == [10, 99_999]

    def test_window_must_fit_in_stratum(self):
        sc = SamplingConfig(interval=900, warmup=150, samples=16)
        with pytest.raises(ConfigError):
            sc.window_starts(10_000)


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(interval=0, samples=4),
        dict(interval=100, warmup=-1, samples=4),
        dict(interval=100, warmup=100, samples=4),   # warmup >= interval
        dict(interval=100, warmup=200, samples=4),
        dict(interval=100, samples=0),
        dict(interval=100),                           # neither
        dict(interval=100, samples=4, targets=(0,)),  # both
        dict(interval=100, targets=()),
        dict(interval=100, targets=(5, 5)),           # not increasing
        dict(interval=100, targets=(9, 3)),
        dict(interval=100, targets=(-1, 3)),
    ])
    def test_bad_configs_raise(self, kwargs):
        with pytest.raises(ConfigError):
            SamplingConfig(**kwargs).validate()

    def test_canonical_dict_is_stable_identity(self):
        a = SamplingConfig(interval=1200, warmup=200, samples=16)
        b = SamplingConfig(interval=1200, warmup=200, samples=16)
        assert a.canonical_dict() == b.canonical_dict()
        assert a.canonical_dict()["interval"] == 1200


# ------------------------------------------------------------- estimators --

def _result(windows):
    return SampledResult(workload="w", config=CONFIG,
                         sampling=SamplingConfig(interval=100, samples=4),
                         total_insts=1_000_000, windows=windows)


def _window(i, insts, cycles):
    return SampleWindow(index=i, start=i * 1000, warmup_insts=0,
                        measured_insts=insts, cycles=cycles,
                        ipc=insts / cycles)


class TestEstimators:
    def test_ipc_is_the_ratio_of_totals(self):
        r = _result([_window(0, 1000, 250), _window(1, 1000, 1000)])
        # Harmonic: 2000 insts / 1250 cycles.  The arithmetic mean of
        # window IPCs (4.0 and 1.0 -> 2.5) over-weights the fast
        # window; full-run IPC is a ratio of totals.
        assert r.ipc == pytest.approx(2000 / 1250)
        assert r.ipc != pytest.approx(2.5)

    def test_equal_windows_match_plain_mean(self):
        r = _result([_window(i, 500, 250) for i in range(8)])
        assert r.ipc == pytest.approx(2.0)
        assert r.ipc_std == pytest.approx(0.0)
        assert r.ipc_stderr == pytest.approx(0.0)

    def test_stderr_is_delta_method_from_cpi_scale(self):
        r = _result([_window(0, 1000, 400), _window(1, 1000, 500),
                     _window(2, 1000, 600)])
        cpis = [0.4, 0.5, 0.6]
        mean = sum(cpis) / 3
        cpi_std = math.sqrt(sum((c - mean) ** 2 for c in cpis) / 2)
        ipc = 3000 / 1500
        assert r.ipc == pytest.approx(ipc)
        assert r.ipc_std == pytest.approx(ipc ** 2 * cpi_std)
        assert r.ipc_stderr == pytest.approx(ipc ** 2 * cpi_std
                                             / math.sqrt(3))
        assert r.ipc_ci95 == pytest.approx(1.96 * r.ipc_stderr)

    def test_single_window_has_no_spread(self):
        r = _result([_window(0, 1000, 500)])
        assert r.ipc == pytest.approx(2.0)
        assert r.ipc_stderr == 0.0

    def test_degenerate_results_do_not_divide_by_zero(self):
        r = _result([])
        assert r.ipc == 0.0
        assert r.estimated_cycles == 0
        assert r.effective_insts_per_second == 0.0

    def test_estimated_cycles_inverts_ipc(self):
        r = _result([_window(0, 1000, 500)])
        assert r.estimated_cycles == round(1_000_000 / 2.0)

    def test_to_dict_round_trips_the_essentials(self):
        r = _result([_window(0, 1000, 500)])
        d = r.to_dict()
        assert d["kind"] == "sampled"
        assert d["ipc"] == pytest.approx(2.0)
        assert d["sampling"]["samples"] == 4
        assert len(d["windows"]) == 1
        assert "effective_insts_per_second" in d


# ------------------------------------------------------- sampled simulation --

class TestSimulateSampled:
    def test_matches_detailed_reference(self):
        length = 60_000
        ref = simulate(
            FunctionalExecutor(build_workload("cjpeg"), length).run(),
            CONFIG, max_instructions=length)
        ref_ipc = ref.stats.committed_insts / ref.stats.cycles

        sc = SamplingConfig(interval=1200, warmup=200, samples=8)
        result = simulate_sampled(build_workload("cjpeg"), CONFIG, sc,
                                  max_instructions=length,
                                  workload_name="cjpeg")
        assert len(result.windows) == 8
        assert result.workload == "cjpeg"
        assert result.detailed_insts < length // 4
        assert result.ff_insts + result.detailed_insts >= length // 2
        assert abs(result.ipc - ref_ipc) / ref_ipc < 0.10

    def test_simulate_routes_sampling(self):
        sc = SamplingConfig(interval=500, warmup=100, samples=4)
        result = simulate(build_workload("cjpeg"), CONFIG,
                          max_instructions=20_000, sampling=sc,
                          workload_name="cjpeg")
        assert isinstance(result, SampledResult)
        assert result.total_insts == 20_000

    def test_warm_state_is_freed_on_return(self, monkeypatch):
        # The warm stride tables are 4 MB at the default size; nothing
        # built for the run (compiled fast-forward blocks, per-window
        # processors) may keep them in a reference cycle after return.
        refs = []
        build = sampling._WarmState.__init__

        def spy(self, config):
            build(self, config)
            refs.append(weakref.ref(self.vp))

        monkeypatch.setattr(sampling._WarmState, "__init__", spy)
        sc = SamplingConfig(interval=500, warmup=100, samples=4)
        gc.collect()
        gc.disable()
        try:
            simulate(build_workload("cjpeg"), CONFIG,
                     max_instructions=20_000, sampling=sc,
                     workload_name="cjpeg")
            assert len(refs) == 1
            assert refs[0]() is None
        finally:
            gc.enable()

    def test_trace_input_is_rejected(self):
        sc = SamplingConfig(interval=500, warmup=100, samples=4)
        with pytest.raises(ConfigError):
            simulate_sampled([], CONFIG, sc)

    def test_no_measurable_window_raises(self):
        # Window starts beyond where the trace can reach.
        sc = SamplingConfig(interval=500, targets=(10_000_000,))
        with pytest.raises(ConfigError):
            simulate_sampled(build_workload("cjpeg"), CONFIG, sc,
                             max_instructions=20_000)


# ---------------------------------------------------- pinned sampler output --

PINNED_LENGTH = 60_000
PINNED_PLAN = dict(interval=500, warmup=100)

#: sha256 per case over the window placement, the window cycle counts
#: and the run's instruction split.  A change meant to alter what the
#: sampler measures recomputes them with ``python
#: tests/analysis/test_sampling.py`` and says why.
PINNED_DIGESTS = {
    "cjpeg.2cl.stride.vpb":
        "55786fca960241221c2a0ff892b487190d22f320a94dad911c22434af54fcc19",
    "cjpeg.2cl.stride.vpb.check":
        "55786fca960241221c2a0ff892b487190d22f320a94dad911c22434af54fcc19",
    "cjpeg.2cl.stride.vpb.targets":
        "88475306200b83cabd11c4b5586fa513eb7c342aa8c5d95e8734bc45cf4a6793",
    "cjpeg.4cl.none.baseline":
        "9f193252057f9f470c15f67ea24d907009220f16ed10cc31931fecf5a3130cd0",
    "gsmdec.2cl.stride.vpb":
        "5d6e15f2e2c8a3d1780fd4d4fdfe389e93e9d7aef114ea332cef5ce54b859c3a",
    "gsmdec.4cl.none.baseline":
        "9aaba072917d40eb2b5d64a94c2724cd1da70da83f10cb5a5c14299a67284ec3",
}


def _pinned_cases():
    """key -> (workload, config, sampling, simulate_sampled kwargs)."""
    cases = {}
    for workload in ("cjpeg", "gsmdec"):
        for clusters, predictor, steering in ((2, "stride", "vpb"),
                                              (4, "none", "baseline")):
            cases[f"{workload}.{clusters}cl.{predictor}.{steering}"] = (
                workload,
                make_config(clusters, predictor=predictor,
                            steering=steering),
                SamplingConfig(samples=4, **PINNED_PLAN), {})
    cases["cjpeg.2cl.stride.vpb.check"] = (
        "cjpeg", CONFIG, SamplingConfig(samples=4, **PINNED_PLAN),
        {"check": True})
    # Window 0 runs past 1200, so window 1 starts where it stopped
    # (at 1682).
    cases["cjpeg.2cl.stride.vpb.targets"] = (
        "cjpeg", CONFIG,
        SamplingConfig(targets=(1000, 1200, 30000), **PINNED_PLAN), {})
    return cases


def pinned_result(key):
    workload, config, sc, kwargs = _pinned_cases()[key]
    return simulate_sampled(build_workload(workload), config, sc,
                            max_instructions=PINNED_LENGTH,
                            workload_name=workload, **kwargs)


def pinned_digest(result):
    payload = {
        "windows": [[w.start, w.warmup_insts, w.measured_insts, w.cycles]
                    for w in result.windows],
        "detailed_insts": result.detailed_insts,
        "ff_insts": result.ff_insts,
        "total_insts": result.total_insts,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class TestPinnedOutput:
    @pytest.mark.parametrize("key", sorted(_pinned_cases()))
    def test_sampler_output_matches_digest(self, key):
        assert pinned_digest(pinned_result(key)) == PINNED_DIGESTS[key]


if __name__ == "__main__":
    for name in sorted(_pinned_cases()):
        digest = pinned_digest(pinned_result(name))
        print(f'    "{name}":\n        "{digest}",')
