"""Unit tests for the static/dynamic instruction records."""

import itertools
from operator import attrgetter

import pytest

from repro.isa.executor import FunctionalExecutor
from repro.isa.instruction import DynInst, Instruction
from repro.isa.opcodes import OpClass, opinfo
from repro.isa.program import INSTRUCTION_BYTES
from repro.workloads import build_workload, workload_names

from ..conftest import make_dyn

#: The opcode flags an :class:`Instruction` copies from its opcode.
FLAGS = ("is_branch", "is_cond_branch", "is_load", "is_store")

#: Every static fact a record offers, with its source on the static
#: instruction.
STATIC_VIEWS = {
    **{name: attrgetter(name) for name in
       ("pc", "op", "dest", "srcs", "target", "srcs_fp", *FLAGS)},
    "is_int": attrgetter("op.is_int"), "opclass": attrgetter("op.opclass"),
}


class TestStaticInstruction:
    def test_repr_contains_operands(self):
        inst = Instruction(opinfo("add"), 3, (1, 2), None, None, 0x1000)
        text = repr(inst)
        assert "add" in text and "r3" in text and "r1" in text

    def test_repr_with_imm_and_target(self):
        inst = Instruction(opinfo("beq"), None, (1, 2), None, 0x2000, 0x1004)
        assert "@0x2000" in repr(inst)


class TestDynInst:
    def test_branch_views(self):
        branch = make_dyn(0, 0x1000, op="bne", srcs=(1, 2), taken=True,
                          target=0x1010)
        assert branch.is_branch and branch.is_cond_branch
        jump = make_dyn(1, 0x1004, op="j", taken=True, target=0x1000)
        assert jump.is_branch and not jump.is_cond_branch
        add = make_dyn(2, 0x1008, op="add", dest=1, srcs=(2, 3))
        assert not add.is_branch

    def test_memory_views(self):
        load = make_dyn(0, 0, op="lw", dest=1, srcs=(2,), mem_addr=100)
        assert load.is_load and not load.is_store
        assert load.opclass is OpClass.LOAD
        store = make_dyn(1, 4, op="sw", srcs=(1, 2), mem_addr=100)
        assert store.is_store

    def test_src_is_fp_uses_register_bank(self):
        fsw = make_dyn(0, 0, op="fsw", srcs=(40, 2), mem_addr=0)
        assert fsw.srcs_fp[0]         # the stored fp value
        assert not fsw.srcs_fp[1]     # the integer base address

    def test_repr_smoke(self):
        dyn = make_dyn(7, 0x1234, op="mul", dest=5, srcs=(1, 2))
        text = repr(dyn)
        assert "#7" in text and "mul" in text and "r5" in text

    def test_record_holds_only_per_execution_fields(self):
        assert DynInst.__slots__ == ("seq", "static", "src_values",
                                     "result", "mem_addr", "taken")

    def test_static_views_are_read_only(self):
        dyn = make_dyn(0, 0x1000, op="add", dest=1, srcs=(2, 3))
        for name in STATIC_VIEWS:
            with pytest.raises(AttributeError):
                setattr(dyn, name, None)


@pytest.mark.parametrize("name", workload_names())
def test_static_views_match_the_instruction(name):
    """Over each workload's first 2,000 records, every static fact read
    through a record is its instruction's, and the records chain: each
    one's pc is where the previous one's outcome leads."""
    program = build_workload(name)
    trace = list(itertools.islice(FunctionalExecutor(program).run(), 2_000))
    assert len(trace) == 2_000
    next_pc = program.code_base
    for dyn in trace:
        static = dyn.static
        assert static is program.at(dyn.pc)
        for flag in FLAGS:
            assert getattr(static, flag) == getattr(static.op, flag)
        for view, expected in STATIC_VIEWS.items():
            assert getattr(dyn, view) == expected(static), (dyn, view)
        assert dyn.pc == next_pc
        next_pc = (static.target if dyn.taken
                   else static.pc + INSTRUCTION_BYTES)
