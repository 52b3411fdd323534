"""Functional-warming train hooks: the compiled fast-forward path with
hooks installed must observe exactly what decode observes, and the
predictors' pre-bound trainers must train bit-identically to one
``predict_update``/``update`` call per event."""

import re

import pytest

from repro.analysis.sampling import _WarmState
from repro.core import make_config
from repro.frontend.branch_predictor import CombinedPredictor
from repro.isa.executor import FunctionalExecutor
from repro.predictor.stride import StridePredictor
from repro.workloads import build_workload

from ..predictor.test_predictor_properties import _state

WORKLOAD = "gsmenc"
LENGTH = 30_000


def _predictor_pair(config):
    vp = StridePredictor(entries=config.vp_entries)
    bp = CombinedPredictor()
    return vp, bp


def _vp_state(vp):
    return (list(vp._last), list(vp._stride), list(vp._prev_stride),
            list(vp._counter))


def _bp_state(bp):
    return (list(bp.bimodal._table.counters),
            list(bp.gshare._table.counters),
            list(bp._chooser.counters),
            bp.gshare.history)


def _per_call(vp, bp) -> dict:
    """Hooks whose trainers make one public call per event."""
    return dict(
        value=lambda pc, slot:
            lambda actual: vp.predict_update(pc, slot, actual),
        branch=lambda pc: lambda taken: bp.update(pc, taken))


def _run(config, *, trainers):
    vp, bp = _predictor_pair(config)
    executor = FunctionalExecutor(build_workload(WORKLOAD), LENGTH)
    if trainers:
        executor.set_train_hooks(value=vp.trainer, branch=bp.trainer)
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

    @pytest.mark.parametrize("predictor", ["context", "hybrid"])
    def test_base_trainer_is_update(self, predictor):
        # Predictors without a trainer of their own warm through the
        # base class's: ``update`` pre-bound to the operand.
        config = make_config(2, predictor=predictor, steering="vpb")
        warmed = FunctionalExecutor(build_workload(WORKLOAD), 5_000)
        warm = _WarmState(config)
        warm.install_hooks(warmed)
        warmed.skip(5_000)
        called = FunctionalExecutor(build_workload(WORKLOAD), 5_000)
        ref = _WarmState(config)
        called.set_train_hooks(value=lambda pc, slot: lambda actual:
                               ref.vp.update(pc, slot, actual))
        called.skip(5_000)
        assert _state(warm.vp) == _state(ref.vp)
        assert _state(warm.vp) != _state(_WarmState(config).vp)

    @pytest.mark.parametrize("predictor", ["none", "perfect"])
    def test_nothing_to_learn_compiles_no_value_hook(self, predictor):
        # These predictors' ``update`` does nothing, so warming them
        # must not cost a call per integer source.
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
        executor.set_train_hooks(value=vp.trainer, branch=bp.trainer)
        executor.skip(1_000)
        state_after = _vp_state(vp)
        executor.set_train_hooks()     # all None: uninstall
        executor.skip(1_000)
        assert _vp_state(vp) == state_after
