"""Unit tests for the in-flight uop/operand records."""

from repro.core.uop import (KIND_COPY, KIND_INST, KIND_VCOPY, MODE_LOCAL,
                            MODE_PRED, MODE_ZERO, Operand, STATE_WAITING,
                            Uop)
from repro.isa.opcodes import OpClass

from ..conftest import make_dyn


def test_kind_predicates():
    dyn = make_dyn(0, 0x1000, op="add", dest=1, srcs=(2, 3))
    inst = Uop(KIND_INST, dyn, 0, 0, True, OpClass.IALU)
    copy = Uop(KIND_COPY, dyn, 1, 0, True, None)
    vcopy = Uop(KIND_VCOPY, dyn, 2, 0, True, None)
    assert inst.is_inst and not inst.is_copy and not inst.is_vcopy
    assert copy.is_copy and not copy.is_inst
    assert vcopy.is_vcopy
    assert inst.kind_name() == "inst"
    assert copy.kind_name() == "copy"
    assert vcopy.kind_name() == "vcopy"


def test_memory_predicates_follow_dyn():
    load = Uop(KIND_INST, make_dyn(0, 0, op="lw", dest=1, srcs=(2,),
                                   mem_addr=64), 0, 0, True, OpClass.LOAD)
    store = Uop(KIND_INST, make_dyn(1, 4, op="sw", srcs=(1, 2),
                                    mem_addr=64), 1, 0, True, OpClass.STORE)
    copy = Uop(KIND_COPY, load.dyn, 2, 0, True, None)
    assert load.is_load and not load.is_store
    assert store.is_store and not store.is_load
    assert not copy.is_load and not copy.is_store   # copies never touch mem


def test_initial_state():
    uop = Uop(KIND_INST, make_dyn(0, 0, op="add", dest=1, srcs=(2, 3)),
              5, 2, True, OpClass.IALU)
    assert uop.state == STATE_WAITING
    assert uop.generation == 0
    assert uop.unverified == 0
    assert uop.readers == []
    # Allocated on first use.
    assert len(uop.verify_list) == 0 and len(uop.free_on_commit) == 0
    assert uop.order == 5 and uop.cluster == 2


def test_operand_defaults():
    operand = Operand(MODE_LOCAL, preg=7)
    assert operand.mode == MODE_LOCAL
    assert operand.preg == 7
    assert operand.correct is True
    assert not operand.verified
    assert not operand.injected
    zero = Operand(MODE_ZERO)
    assert zero.preg is None
    pred = Operand(MODE_PRED, 3, correct=False)
    assert not pred.correct


def test_repr_smoke():
    uop = Uop(KIND_INST, make_dyn(0, 0, op="mul", dest=1, srcs=(2, 3)),
              9, 1, True, OpClass.IMUL)
    text = repr(uop)
    assert "mul" in text and "order=9" in text
