"""Golden-model co-simulation tests: clean runs pass, tampering raises."""

import pytest

from repro.core import make_config, simulate
from repro.errors import DivergenceError
from repro.isa import ProgramBuilder
from repro.isa.executor import FunctionalExecutor, recompute_result
from repro.isa.instruction import DynInst
from repro.validation import GoldenModel
from repro.workloads import build_workload, workload_trace

from ..conftest import make_dyn


def _consistent_trace():
    """li r1=5; add r2=r1+r1; add r3=r1+r2 — self-consistent."""
    return [
        make_dyn(0, 0x1000, op="li", dest=1, result=5),
        make_dyn(1, 0x1004, op="add", dest=2, srcs=(1, 1),
                 src_values=(5, 5), result=10),
        make_dyn(2, 0x1008, op="add", dest=3, srcs=(1, 2),
                 src_values=(5, 10), result=15),
    ]


class TestCleanRuns:
    def test_workload_run_passes_check(self):
        trace = list(workload_trace("rawcaudio", 2000))
        result = simulate(trace, make_config(4, predictor="stride",
                                             steering="vpb"), check=True)
        assert result.validation["golden_commits"] == len(trace)
        assert result.validation["golden_batches"] >= 1

    def test_small_interval_checks_every_commit(self):
        trace = list(workload_trace("rawcaudio", 500))
        config = make_config(2, predictor="stride", steering="vpb",
                             golden_interval=1)
        result = simulate(trace, config, check=True)
        assert result.validation["golden_batches"] == len(trace)

    def test_final_state_matches_functional_executor(self):
        program = build_workload("rawcaudio")
        executor = FunctionalExecutor(program, 1500)
        trace = list(executor.run())
        golden = GoldenModel(interval=128)
        from repro.core.processor import Processor
        processor = Processor(make_config(4, predictor="stride",
                                          steering="vpb"), iter(trace),
                              golden=golden)
        processor.run()
        assert golden.finish() == len(trace)
        assert golden.int_regs == executor.int_regs
        assert golden.fp_regs == executor.fp_regs

    @pytest.mark.parametrize("clusters", [1, 4])
    def test_r0_destination_is_compared_as_zero(self, clusters):
        # add r0 computes 7 and writes nothing: the trace's 0 is right.
        b = ProgramBuilder()
        b.emit("li", "r1", 3)
        b.emit("li", "r2", 4)
        b.emit("add", "r0", "r1", "r2")
        b.emit("add", "r3", "r0", "r1")
        b.emit("halt")
        result = simulate(b.build(), make_config(clusters), check=True)
        assert result.validation["golden_commits"] == 4


class TestTamperedTraces:
    def test_tampered_result_raises_divergence(self):
        trace = _consistent_trace()
        trace[2] = make_dyn(2, 0x1008, op="add", dest=3, srcs=(1, 2),
                            src_values=(5, 10), result=999)
        with pytest.raises(DivergenceError, match="re-executed result"):
            simulate(trace, make_config(1), check=True)

    def test_tampered_immediate_result_is_reexecuted(self):
        # rawcaudio's seq 29 is `addi r21, r21, -3` (4 -> 1); the add at
        # seq 30 reads r21.  An off-by-one result is caught at its own
        # record, from the static immediate, not later at the reader.
        trace = list(workload_trace("rawcaudio", 200))
        dyn = trace[29]
        assert dyn.static.op.name == "addi" and dyn.static.imm == -3
        trace[29] = DynInst(dyn.seq, dyn.static, dyn.src_values,
                            dyn.result + 1, dyn.mem_addr, dyn.taken)
        with pytest.raises(DivergenceError,
                           match="re-executed result diverged") as exc_info:
            simulate(trace, make_config(4, predictor="stride",
                                        steering="vpb"), check=True)
        assert exc_info.value.seq == 29

    def test_tampered_unread_immediate_result_raises(self):
        # Nothing reads r2 after the addi: only re-execution sees it.
        b = ProgramBuilder()
        b.emit("li", "r1", 5)
        b.emit("addi", "r2", "r1", 1)
        b.emit("halt")
        trace = list(FunctionalExecutor(b.build(), 10).run())
        dyn = trace[1]
        trace[1] = DynInst(dyn.seq, dyn.static, dyn.src_values, 7,
                           dyn.mem_addr, dyn.taken)
        with pytest.raises(DivergenceError, match="re-executed result"):
            simulate(trace, make_config(1), check=True)

    def test_tampered_r0_result_raises_divergence(self):
        trace = _consistent_trace()
        trace[1] = make_dyn(1, 0x1004, op="add", dest=0, srcs=(1, 1),
                            src_values=(5, 5), result=10)
        with pytest.raises(DivergenceError, match="golden 0 != trace 10"):
            simulate(trace, make_config(1), check=True)

    def test_tampered_source_raises_divergence_with_diff(self):
        trace = _consistent_trace()
        trace[2] = make_dyn(2, 0x1008, op="add", dest=3, srcs=(2, 2),
                            src_values=(11, 11), result=22)
        with pytest.raises(DivergenceError) as exc_info:
            simulate(trace, make_config(1), check=True)
        error = exc_info.value
        assert error.seq == 2
        assert error.pc == 0x1008
        assert error.register_diff  # names the diverging register
        (diff,) = error.register_diff.values()
        assert diff == {"golden": 10, "trace": 11}

    def test_divergence_error_context_is_machine_readable(self):
        trace = _consistent_trace()
        trace[1] = make_dyn(1, 0x1004, op="add", dest=2, srcs=(1, 1),
                            src_values=(5, 5), result=11)
        with pytest.raises(DivergenceError) as exc_info:
            simulate(trace, make_config(1), check=True)
        context = exc_info.value.context()
        assert context["component"] == "golden-model"
        assert context["seq"] == 1
        assert "cycle" in context


class TestGoldenModelUnit:
    def test_out_of_order_commit_detected(self):
        golden = GoldenModel(interval=1)
        golden.on_commit(make_dyn(0, 0x1000, op="li", dest=1, result=5),
                         cycle=3, cluster=0)
        with pytest.raises(DivergenceError, match="expected seq 1"):
            golden.on_commit(
                make_dyn(2, 0x1008, op="li", dest=2, result=6),
                cycle=4, cluster=1)

    def test_duplicate_commit_detected(self):
        golden = GoldenModel(interval=1)
        dyn = make_dyn(0, 0x1000, op="li", dest=1, result=5)
        golden.on_commit(dyn, cycle=3, cluster=0)
        with pytest.raises(DivergenceError):
            golden.on_commit(dyn, cycle=4, cluster=0)

    def test_batching_defers_detection_to_flush(self):
        golden = GoldenModel(interval=64)
        golden.on_commit(make_dyn(1, 0x1004, op="li", dest=1, result=5),
                         cycle=3, cluster=0)  # wrong seq, buffered
        with pytest.raises(DivergenceError):
            golden.finish()

    def test_matches_executor_diff(self):
        golden = GoldenModel()
        golden.on_commit(make_dyn(0, 0x1000, op="li", dest=1, result=5),
                         cycle=1, cluster=0)
        golden.finish()
        state = golden.register_state()
        assert golden.matches_executor(state)
        state[next(iter(state))] = object()
        assert not golden.matches_executor(state)
        assert golden.diff_against(state)

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            GoldenModel(interval=0)


class TestRecomputeResult:
    def test_reexecutes_pure_int_ops(self):
        assert recompute_result("add", (2, 3), None) == (True, 5)

    def test_skips_memory_ops(self):
        known, _ = recompute_result("lw", (0x100,), None)
        assert not known

    def test_skips_immediate_forms_without_imm(self):
        known, _ = recompute_result("addi", (2,), None)
        assert not known
