"""Tests for the public simulate() API and SimResult."""

import pytest

from repro import ProcessorConfig, make_config, simulate
from repro.isa import ProgramBuilder, execute
from repro.workloads import build_workload, synthetic


def tiny_program():
    b = ProgramBuilder()
    b.emit("li", "r1", 0)
    b.emit("li", "r2", 50)
    b.label("loop")
    b.emit("addi", "r1", "r1", 1)
    b.emit("blt", "r1", "r2", "loop")
    b.emit("halt")
    return b.build()


class TestSimulateInputs:
    def test_accepts_program(self):
        result = simulate(tiny_program(), make_config(1))
        assert result.stats.committed_insts > 50

    def test_accepts_trace_list(self):
        trace = execute(tiny_program())
        result = simulate(trace, make_config(1))
        assert result.stats.committed_insts == len(trace)

    def test_accepts_iterator(self):
        trace = execute(tiny_program())
        result = simulate(iter(trace), make_config(1))
        assert result.stats.committed_insts == len(trace)

    def test_max_instructions_caps_program_execution(self):
        program = synthetic.serial_chain(16)
        result = simulate(program, make_config(1), max_instructions=500)
        assert result.stats.committed_insts == 500

    def test_max_cycles_stops_simulation(self):
        result = simulate(build_workload("cjpeg"), make_config(1),
                          max_instructions=5000, max_cycles=100)
        assert result.stats.cycles == 100

    def test_invalid_config_rejected_before_running(self):
        config = ProcessorConfig(n_clusters=4, predictor="nope")
        with pytest.raises(ValueError):
            simulate(tiny_program(), config)


class TestSimResultSurface:
    def test_shortcut_properties(self):
        result = simulate(tiny_program(), make_config(1))
        assert result.ipc == result.stats.ipc
        assert result.comm_per_inst == result.stats.comm_per_inst
        assert result.imbalance == result.stats.avg_imbalance

    def test_summary_mentions_key_metrics(self):
        result = simulate(tiny_program(),
                          make_config(4, predictor="stride"))
        text = result.summary()
        assert "IPC" in text
        assert "communications/inst" in text
        assert "VP hit ratio" in text

    def test_repr_compact(self):
        result = simulate(tiny_program(), make_config(1))
        assert "ipc=" in repr(result)

    def test_component_stats_bundles(self):
        result = simulate(tiny_program(), make_config(1,
                                                      predictor="stride"))
        assert set(result.cache_stats) == {"l1i", "l1d", "l2"}
        assert "accuracy" in result.bp_stats
        assert "hit_ratio" in result.vp_stats

    def test_stats_rate_helpers_empty_safe(self):
        from repro.core import SimStats
        stats = SimStats()
        assert stats.ipc == 0.0
        assert stats.comm_per_inst == 0.0
        assert stats.copies_per_inst == 0.0
        assert stats.branch_misprediction_rate == 0.0
        assert stats.value_misprediction_rate == 0.0


class TestToDict:
    def test_to_dict_round_trips_through_json(self):
        import json
        result = simulate(tiny_program(),
                          make_config(4, predictor="stride",
                                      steering="vpb"))
        data = result.to_dict()
        encoded = json.dumps(data)
        decoded = json.loads(encoded)
        assert decoded["committed_insts"] == result.stats.committed_insts
        assert decoded["ipc"] == pytest.approx(result.ipc)
        assert "value_predictor" in decoded
        assert decoded["dispatch_per_cluster"] and isinstance(
            decoded["dispatch_per_cluster"], list)

    def test_to_dict_contains_every_headline_metric(self):
        result = simulate(tiny_program(), make_config(2))
        data = result.to_dict()
        for key in ("ipc", "comm_per_inst", "imbalance", "cycles",
                    "invalidations", "branch_misprediction_rate"):
            assert key in data


class TestDescribeState:
    def test_snapshot_mid_run_and_after(self):
        from repro.core.processor import Processor
        from repro.workloads import workload_trace
        trace = workload_trace("rawcaudio", 2000)
        processor = Processor(make_config(4), iter(list(trace)))
        processor.run(max_cycles=30)
        text = processor.pipeline_snapshot(processor.cycle, 0, 0).render()
        assert "cycle 30" in text
        assert "cluster 3" in text
        assert "ROB" in text
        processor.run()
        done = processor.pipeline_snapshot(processor.cycle, 0, 0).render()
        assert "fetch done" in done
