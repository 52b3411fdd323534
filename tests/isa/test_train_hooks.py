"""Functional-warming train hooks: the compiled fast-forward path with
hooks installed must train the predictors exactly as the detailed
model's decode and fetch do, and the trainers bound once per static
site must train like a fresh decode or fetch call per event.  The
stride predictor's trainers queue their values, and ``skip()`` settles
the queues itself."""

import functools
import re

import pytest

from repro.analysis.sampling import _WarmState
from repro.core import make_config
from repro.core.processor import Processor
from repro.frontend.branch_predictor import CombinedPredictor
from repro.isa import ProgramBuilder
from repro.isa.executor import SETTLE_INTERVAL, FunctionalExecutor
from repro.isa.registers import FP_BASE, ZERO_REG
from repro.predictor.stride import StridePredictor
from repro.workloads import build_workload

from ..predictor.reference_predictors import ReferenceStride, stride_entry
from ..predictor.test_predictor_properties import _state

WORKLOAD = "gsmenc"
LENGTH = 30_000


def _predictor_pair(config):
    vp = StridePredictor(entries=config.vp_entries)
    bp = CombinedPredictor()
    return vp, bp


def _vp_state(vp):
    return _state(vp, stats=False)


def _bp_state(bp):
    return (list(bp.bimodal), list(bp.gshare), list(bp.chooser),
            bp.history)


def _per_call(vp, bp) -> dict:
    """Hooks that make decode's and fetch's public call per event."""
    return dict(
        value=lambda pc, slot:
            lambda actual: vp.predict_update(pc, slot, actual),
        branch=lambda pc: lambda taken: bp.update(pc, taken))


def _run(config, *, trainers):
    vp, bp = _predictor_pair(config)
    executor = FunctionalExecutor(build_workload(WORKLOAD), LENGTH)
    if trainers:
        executor.set_train_hooks(value=vp.trainer, branch=bp.trainer,
                                 settle=vp.settle)
    else:
        executor.set_train_hooks(**_per_call(vp, bp))
    executor.skip(LENGTH)
    return executor, vp, bp


class TestFactoryEquivalence:
    def test_factory_training_is_bit_identical_to_generic(self):
        config = make_config(2, predictor="stride", steering="vpb")
        per_call_exec, gvp, gbp = _run(config, trainers=False)
        trainer_exec, fvp, fbp = _run(config, trainers=True)

        assert per_call_exec.seq == trainer_exec.seq
        assert per_call_exec.int_regs == trainer_exec.int_regs
        assert _vp_state(gvp) == _vp_state(fvp)
        assert _bp_state(gbp) == _bp_state(fbp)

    @pytest.mark.parametrize("predictor", ["stride", "context", "hybrid"])
    def test_warming_matches_decode_training(self, predictor):
        # Decode trains the value predictor, and fetch the branch
        # predictor, once per instruction in program order; a warmed
        # skip() over the same instructions must leave both predictors'
        # tables exactly as a detailed run of them does.
        config = make_config(2, predictor=predictor, steering="vpb")
        warmed = FunctionalExecutor(build_workload(WORKLOAD), 5_000)
        warm = _WarmState(config)
        warm.install_hooks(warmed)
        warmed.skip(5_000)
        detailed = Processor(config, FunctionalExecutor(
            build_workload(WORKLOAD), 5_000).run())
        assert detailed.run().stats.committed_insts == 5_000
        assert _state(warm.vp, stats=False) \
            == _state(detailed.vp, stats=False)
        assert _bp_state(warm.bpred) == _bp_state(detailed.bpred)
        assert _state(warm.vp) != _state(_WarmState(config).vp)

    @pytest.mark.parametrize("predictor", ["none", "perfect"])
    def test_nothing_to_learn_compiles_no_value_hook(self, predictor):
        # These predictors have no trainer, so warming them must not
        # cost a call per integer source.
        config = make_config(2, predictor=predictor, steering="vpb")
        executor = FunctionalExecutor(build_workload(WORKLOAD), 5_000)
        _WarmState(config).install_hooks(executor)
        assert executor.skip(5_000) == 5_000
        names = executor._code.ns
        assert not [name for name in names
                    if re.fullmatch(r"v\d+_\d+", name)]
        assert [name for name in names if re.fullmatch(r"b\d+", name)]

    def test_architectural_results_unchanged_by_hooks(self):
        config = make_config(2, predictor="stride", steering="vpb")
        plain = FunctionalExecutor(build_workload(WORKLOAD), LENGTH)
        plain.skip(LENGTH)
        hooked, _, _ = _run(config, trainers=True)
        assert hooked.seq == plain.seq
        assert hooked.pc == plain.pc
        assert hooked.int_regs == plain.int_regs
        assert hooked.fp_regs == plain.fp_regs

    def test_training_actually_happened(self):
        config = make_config(2, predictor="stride", steering="vpb")
        _, vp, bp = _run(config, trainers=True)
        untrained_vp, untrained_bp = _predictor_pair(config)
        assert _vp_state(vp) != _vp_state(untrained_vp)
        assert _bp_state(bp) != _bp_state(untrained_bp)

    def test_uninstall_restores_plain_skip(self):
        executor = FunctionalExecutor(build_workload(WORKLOAD), LENGTH)
        vp, bp = _predictor_pair(make_config(2, predictor="stride"))
        executor.set_train_hooks(value=vp.trainer, branch=bp.trainer,
                                 settle=vp.settle)
        executor.skip(1_000)
        state_after = _vp_state(vp)
        executor.set_train_hooks()     # all None: uninstall
        executor.skip(1_000)
        assert _vp_state(vp) == state_after


# ------------------------------------------------- queued stride training --

def _queued(vp: StridePredictor) -> dict:
    return dict(value=vp.trainer, settle=vp.settle)


def _aliasing_loop():
    """A loop whose head reads r1 and whose far block, 512 instructions
    on, reads r4 = 2 * r1 in the same slot: one index of a 1K-entry
    table, trained alternately by the two operands."""
    b = ProgramBuilder()
    b.emit("li", "r1", 0)
    b.emit("li", "r2", 60)
    b.label("loop")
    b.emit("addi", "r3", "r1", 0)
    b.emit("j", "far")
    for _ in range(510):
        b.emit("nop")
    b.label("far")
    b.emit("addi", "r5", "r4", 0)
    b.emit("addi", "r1", "r1", 1)
    b.emit("add", "r4", "r1", "r1")
    b.emit("blt", "r1", "r2", "loop")
    b.emit("halt")
    return b.build()


def test_aliased_operands_train_their_record_in_execution_order():
    program = _aliasing_loop()
    head, far = program.labels["loop"], program.labels["far"]
    vp = StridePredictor(1024)
    assert vp._index(head, 0) == vp._index(far, 0)
    reference = ReferenceStride(1024)
    for dyn in FunctionalExecutor(_aliasing_loop()).run():
        for slot, rid in enumerate(dyn.static.srcs):
            if rid != ZERO_REG and rid < FP_BASE:
                reference.update(dyn.static.pc, slot, dyn.src_values[slot])
    executor = FunctionalExecutor(program)
    executor.set_train_hooks(**_queued(vp))
    while executor.skip(7):   # many settles, some between the two reads
        pass
    assert executor.halted
    assert _state(vp) == _state(reference)
    # r1's last value is 59 and r4's is 118, read after it: the shared
    # record ends on the far block's read.
    assert stride_entry(vp, head, 0)[0] == 118
    detailed = Processor(
        make_config(2, predictor="stride", steering="vpb", vp_entries=1024),
        FunctionalExecutor(_aliasing_loop()).run())
    detailed.run()
    assert _state(detailed.vp, stats=False) \
        == _state(reference, stats=False)


def _raising_loop():
    """A load walks a buffer of integers into a stored inf: its value
    hook reads the base register, then ``int(inf)`` raises."""
    b = ProgramBuilder()
    b.data("buf", [3 * k for k in range(40)] + [float("inf")])
    b.emit("la", "r3", "buf")
    b.emit("li", "r6", 0)
    b.label("loop")
    b.emit("lw", "r4", "r3", 0)
    b.emit("add", "r6", "r6", "r4")
    b.emit("addi", "r3", "r3", 4)
    b.emit("j", "loop")
    return b.build()


def test_a_raising_skip_trains_what_per_event_training_trains():
    queued, per_event = StridePredictor(1024), ReferenceStride(1024)
    each_event = dict(value=lambda pc, slot: functools.partial(
        per_event.update, pc, slot))
    for hooks in (_queued(queued), each_event):
        executor = FunctionalExecutor(_raising_loop())
        executor.set_train_hooks(**hooks)
        with pytest.raises(OverflowError):
            executor.skip(10_000)
        assert executor.seq == 2 + 40 * 4
    assert _state(queued) == _state(per_event)
    # The raising load's base was queued before int() raised.
    load = _raising_loop().labels["loop"]
    assert stride_entry(queued, load, 0)[0] \
        == _raising_loop().data_labels["buf"] + 4 * 40


def _one_source_per_instruction(straight: bool):
    """Every instruction after the first reads one integer register:
    a three-instruction loop, or 20,000 straight-line ``addi``s."""
    b = ProgramBuilder()
    b.emit("li", "r1", 1 << 20)
    if straight:
        for _ in range(20_000):
            b.emit("addi", "r3", "r3", 1)
        b.emit("halt")
        return b.build()
    b.label("loop")
    b.emit("addi", "r3", "r3", 1)
    b.emit("addi", "r1", "r1", -1)
    b.emit("bne", "r1", "r0", "loop")
    return b.build()


@pytest.mark.parametrize("straight, counts", [
    (False, (3, 30_000, 19_000)), (True, (30_000,))],
    ids=["loop", "straight-line"])
def test_settle_runs_at_least_every_interval(straight, counts):
    # One value per instruction, so the values between two settles
    # count the instructions fast-forwarded between them.
    since, gaps = [0], []

    def value(pc, slot):
        def hook(actual):
            since[0] += 1
        return hook

    def settle():
        gaps.append(since[0])
        since[0] = 0

    executor = FunctionalExecutor(_one_source_per_instruction(straight),
                                  50_000)
    executor.set_train_hooks(value=value, settle=settle)
    inner = []
    for count in counts:
        before = len(gaps)
        assert executor.skip(count) == count or executor.halted
        assert len(gaps) > before and since[0] == 0   # settled on return
        inner += gaps[before:-1]
    assert sum(gaps) == executor.seq - 1
    assert max(gaps) <= SETTLE_INTERVAL
    if not straight:
        # ... and no sooner than the three-instruction block that would
        # overrun the interval forces.
        assert min(inner) >= SETTLE_INTERVAL - 2
