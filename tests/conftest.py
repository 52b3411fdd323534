"""Shared fixtures and factories for the test suite."""

from __future__ import annotations

import pytest

from repro.isa.instruction import DynInst, Instruction
from repro.isa.opcodes import opinfo


def make_dyn(seq: int, pc: int, op: str = "add", dest=None, srcs=(),
             src_values=None, result=None, mem_addr=None, taken=None,
             target=None) -> DynInst:
    """Fabricate a DynInst for front-end / core unit tests."""
    info = opinfo(op)
    if src_values is None:
        src_values = tuple(0 for _ in srcs)
    srcs = tuple(srcs)
    static = Instruction(info, dest, srcs, None, target, pc)
    return DynInst(seq, pc, info, dest, srcs, tuple(src_values),
                   result, mem_addr, taken, target, static)


@pytest.fixture
def dyn_factory():
    """The :func:`make_dyn` factory as a fixture."""
    return make_dyn


def linear_trace(count: int, base_pc: int = 0x1000):
    """A straight-line trace of independent `li`-style adds."""
    return [make_dyn(i, base_pc + 4 * i, op="li", dest=1 + (i % 8),
                     result=i) for i in range(count)]


@pytest.fixture
def linear_trace_factory():
    return linear_trace
