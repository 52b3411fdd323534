"""Shared fixtures and factories for the test suite."""

from __future__ import annotations

import pytest

from repro.core import make_config
from repro.core.processor import Processor
from repro.frontend import BranchPredictorStats
from repro.isa import ProgramBuilder, execute
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
    return DynInst(seq, static, tuple(src_values), result, mem_addr, taken)


@pytest.fixture
def dyn_factory():
    """The :func:`make_dyn` factory as a fixture."""
    return make_dyn


class TakenPredictor:
    """Always predicts taken: a direction predictor stand-in for fetch
    tests."""

    def __init__(self) -> None:
        self.stats = BranchPredictorStats()

    def predict(self, pc: int) -> bool:
        return True

    def update(self, pc: int, taken: bool) -> None:
        self.stats.lookups += 1
        if not taken:
            self.stats.mispredictions += 1


def linear_trace(count: int, base_pc: int = 0x1000):
    """A straight-line trace of independent `li`-style adds."""
    return [make_dyn(i, base_pc + 4 * i, op="li", dest=1 + (i % 8),
                     result=i) for i in range(count)]


@pytest.fixture
def linear_trace_factory():
    return linear_trace


def pop_fetched(engine, cycle: int, max_count: int) -> list:
    """Pop up to *max_count* instructions fetched before *cycle* from
    *engine*'s fetch buffer, the way the decode stage drains it."""
    buffer = engine._buffer
    group = []
    while (buffer and len(group) < max_count
           and buffer[0].fetch_cycle < cycle):
        group.append(buffer.popleft())
    return group


def program_processor(lines, n_clusters: int = 1, **overrides):
    """A :class:`~repro.core.processor.Processor` replaying *lines*
    (``(op, *operands)`` tuples, then ``halt``), steered round-robin:
    instruction *i* dispatches to cluster ``i % n_clusters``.
    """
    builder = ProgramBuilder()
    for line in lines:
        builder.emit(*line)
    builder.emit("halt")
    config = make_config(n_clusters, steering="round-robin", **overrides)
    return Processor(config, iter(execute(builder.build(), 1_000)))


def dispatch_all(processor) -> None:
    """Advance *processor* until its whole trace has dispatched.

    A short program is fetched in one group and decoded in one cycle,
    so nothing has committed yet."""
    while not processor.fetch.done:
        processor.run_until(max_cycles=processor.cycle + 1)
    assert processor.stats.committed_insts == 0


def at_cycle_boundaries(processor, check):
    """Run *processor* to the end, calling ``check(processor)`` before
    every cycle's stages and once after the drain; returns the result."""
    bookkeeping = processor._bookkeeping

    def checked(cycle):
        check(processor)
        bookkeeping(cycle)
    processor._bookkeeping = checked
    result = processor.run()
    check(processor)
    return result
