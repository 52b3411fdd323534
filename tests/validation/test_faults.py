"""Fault-injection harness tests.

The central property (docs/ROBUSTNESS.md): every injected
predicted-value corruption is caught by the paper's verification
machinery, and the architectural outcome is indistinguishable from a
fault-free run.
"""

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core import make_config, simulate
from repro.core.processor import Processor
from repro.errors import ConfigError
from repro.isa.executor import FunctionalExecutor
from repro.validation import (FAULT_KINDS, FaultInjector, FaultPlan,
                              GoldenModel)
from repro.workloads import build_workload, workload_trace

TRACE_LEN = 1200


@pytest.fixture(scope="module")
def trace():
    return list(workload_trace("rawcaudio", TRACE_LEN))


def _config(**overrides):
    return make_config(4, predictor="stride", steering="vpb", **overrides)


class TestDetectionProperty:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000),
           rate=st.sampled_from([0.02, 0.1, 0.3]))
    # Injects no value fault into these 1,200 instructions.
    @example(seed=1608, rate=0.02)
    def test_every_injected_corruption_is_detected(self, seed, rate):
        # The golden model co-runs, so this also proves the committed
        # stream stayed architecturally correct despite the faults.
        trace = list(workload_trace("rawcaudio", TRACE_LEN))
        plan = FaultPlan.single("value", rate=rate, seed=seed)
        result = simulate(trace, _config(), check=True, fault_plan=plan)
        report = result.validation["fault_report"]
        assume(report.injected_values > 0)
        assert report.detected_values == report.injected_values
        assert report.undetected_values == 0
        assert report.detection_rate == 1.0
        assert result.stats.injected_faults == report.total_injected
        assert result.stats.detected_faults == report.detected_values

    @pytest.mark.parametrize("rate", [0.02, 0.1, 0.3])
    def test_injection_happens(self, trace, rate):
        # At a fixed seed, so the property above has faults to check.
        plan = FaultPlan.single("value", rate=rate, seed=0)
        result = simulate(trace, _config(), check=True, fault_plan=plan)
        assert result.validation["fault_report"].injected_values > 0

    def test_final_state_matches_functional_executor(self, trace):
        program = build_workload("rawcaudio")
        executor = FunctionalExecutor(program, TRACE_LEN)
        reference = list(executor.run())
        golden = GoldenModel(interval=128)
        injector = FaultInjector(FaultPlan.single("value", rate=0.1,
                                                  seed=5))
        processor = Processor(_config(), iter(reference), golden=golden,
                              injector=injector)
        processor.run()
        golden.finish()
        assert golden.int_regs == executor.int_regs
        assert golden.fp_regs == executor.fp_regs
        assert injector.report.detection_rate == 1.0

    def test_mixed_fault_kinds_recover(self, trace):
        plan = FaultPlan(seed=9, value_rate=0.05, bus_delay_rate=0.05,
                         bus_drop_rate=0.02, steer_rate=0.02)
        result = simulate(trace, _config(comm_paths_per_cluster=2),
                          check=True, fault_plan=plan)
        report = result.validation["fault_report"]
        assert report.detection_rate == 1.0
        assert result.stats.committed_insts == len(trace)

    def test_faults_are_deterministic_per_seed(self, trace):
        plan = FaultPlan.single("value", rate=0.05, seed=11)
        a = simulate(trace, _config(), fault_plan=plan)
        b = simulate(trace, _config(), fault_plan=plan)
        assert (a.validation["fault_report"].injected
                == b.validation["fault_report"].injected)
        assert a.stats.cycles == b.stats.cycles

    def test_max_faults_caps_injection(self, trace):
        plan = FaultPlan.single("value", rate=0.5, seed=0, max_faults=3)
        result = simulate(trace, _config(), fault_plan=plan)
        report = result.validation["fault_report"]
        assert 0 < report.total_injected <= 3
        assert report.detection_rate == 1.0

    def test_injection_forbidden_with_perfect_predictor(self, trace):
        plan = FaultPlan.single("value", rate=0.1)
        config = make_config(4, predictor="perfect", steering="vpb")
        with pytest.raises(ConfigError, match="perfect"):
            simulate(trace, config, fault_plan=plan)


class TestFaultPlan:
    def test_parse_single_kind_default_rate(self):
        plan = FaultPlan.parse("value")
        assert plan.value_rate == pytest.approx(0.02)
        assert plan.kinds() == ["value"]

    def test_parse_multi_kind_with_seed(self):
        plan = FaultPlan.parse("value:0.05,steer:0.01@seed=7")
        assert plan.seed == 7
        assert plan.value_rate == pytest.approx(0.05)
        assert plan.steer_rate == pytest.approx(0.01)
        assert plan.active

    def test_parse_rejects_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown fault kind"):
            FaultPlan.parse("cosmic-ray:0.5")

    def test_parse_rejects_bad_rate(self):
        with pytest.raises(ConfigError):
            FaultPlan.parse("value:lots")
        with pytest.raises(ConfigError):
            FaultPlan.parse("value:1.5")

    def test_single_rejects_unknown_kind(self):
        with pytest.raises(ConfigError):
            FaultPlan.single("gamma")

    def test_describe_round_trips_the_knobs(self):
        plan = FaultPlan.single("bus-drop", rate=0.25, seed=3)
        assert plan.describe() == "bus-drop:0.25@seed=3"

    def test_all_kinds_enumerated(self):
        assert set(FaultPlan(value_rate=1, bus_delay_rate=1,
                             bus_drop_rate=1, steer_rate=1).kinds()) \
            == set(FAULT_KINDS)


class TestInjectorUnit:
    def test_corruption_always_differs_from_actual(self):
        injector = FaultInjector(FaultPlan.single("value", rate=1.0))
        for actual in (0, 1, -5, 1 << 40):
            corrupted = injector.corrupt_prediction(0x1000, 0, actual)
            assert corrupted is not None and corrupted != actual

    def test_injection_counted_at_use_not_at_corruption(self):
        injector = FaultInjector(FaultPlan.single("value", rate=1.0))
        assert injector.corrupt_prediction(0x1000, 0, 42) is not None
        assert injector.report.injected_values == 0  # not used yet
        injector.note_value_injected(0x1000, 0)
        assert injector.report.injected_values == 1

    def test_steering_flip_lands_on_another_cluster(self):
        injector = FaultInjector(FaultPlan.single("steer", rate=1.0))
        for _ in range(32):
            assert injector.flip_steering(2, 4, 0x1000) != 2

    def test_steering_never_flips_single_cluster(self):
        injector = FaultInjector(FaultPlan.single("steer", rate=1.0))
        assert injector.flip_steering(0, 1, 0x1000) == 0

    def test_bus_delay_bounded_by_plan(self):
        plan = FaultPlan.single("bus-delay", rate=1.0, max_delay=3)
        injector = FaultInjector(plan)
        for cycle in range(32):
            assert 1 <= injector.bus_extra_delay(cycle) <= 3
