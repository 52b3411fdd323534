"""``FunctionalExecutor.run()`` must yield the reference interpreter's records.

Every figure is a replay of the stream ``run()`` emits, so these tests
hold it to the test-only interpreter in ``reference_executor``: every
``DynInst`` field with its value's type (``int`` against ``float``
results, ``taken`` a ``bool`` only on branches, ``result`` 0 for an
``r0`` destination), then the registers and the memory image.  Inputs
are every workload, the fast-forward tests' random programs and
64-bit-edge operands, and the ends of a stream: ``halt``, the cap, an
off-segment target and resumes after a partial consumption or a
``skip()``.
"""

import copy
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sampling import _WarmState
from repro.core import make_config
from repro.isa import OPCODES, ProgramBuilder, executor
from repro.isa.executor import ExecutionError, FunctionalExecutor
from repro.isa.instruction import Instruction
from repro.isa.memory_image import MemoryImage
from repro.isa.program import CODE_BASE, Program
from repro.workloads import build_workload, workload_names

from .reference_executor import ReferenceExecutor, record, state
from .test_fast_forward import (_BODY_OPS, _halting_loop, edge_program,
                                straight_programs)


def drain(ex, chunk: int = 0) -> tuple:
    """Records of ``ex.run()`` and the error that ended them, if any.

    With *chunk*, each generator is dropped after *chunk* records and a
    new ``run()`` resumes from the cursor.
    """
    records = []
    try:
        while True:
            n = 0
            for dyn in itertools.islice(ex.run(), chunk or None):
                records.append(record(dyn))
                n += 1
            if not chunk or n < chunk:
                break
    except (ExecutionError, OverflowError, ValueError) as exc:
        return records, (type(exc), str(exc))
    return records, None


def both(program, cap: int = 10_000):
    """The executor under test and the reference, each on its own copy
    of *program* (execution writes the memory image)."""
    return (FunctionalExecutor(copy.deepcopy(program), cap),
            ReferenceExecutor(copy.deepcopy(program), cap))


def assert_same(program, chunk: int = 0) -> None:
    ex, ref = both(program)
    assert drain(ex, chunk) == drain(ref, chunk)
    assert state(ex) == state(ref)


# -------------------------------------------------------------- workloads --

@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", workload_names())
def test_workload_records_match_reference(name, seed):
    ex = FunctionalExecutor(build_workload(name, seed=seed), 16_000)
    ref = ReferenceExecutor(build_workload(name, seed=seed), 16_000)
    program = ex.program
    for got, want in zip(ex.run(), ref.run()):
        assert record(got) == record(want), want.seq
        assert got.static is program.at(got.pc)
    assert state(ex) == state(ref)
    assert ex.seq == 16_000 or ex.halted


def take(ex, k: int) -> list:
    """The next *k* records of a new ``run()``."""
    return [record(dyn) for dyn in itertools.islice(ex.run(), k)]


@pytest.mark.parametrize("name", ["gsmdec", "cjpeg", "mpeg2enc"])
def test_resumes_after_partial_runs_and_skips(name):
    ex = FunctionalExecutor(build_workload(name), 12_000)
    ref = ReferenceExecutor(build_workload(name), 12_000)
    for k in (1, 5, 333, 2_001, 7, 64):
        assert take(ex, k) == take(ref, k)
        assert ex.skip(k) == len(take(ref, k)) == k
        assert state(ex) == state(ref)
    assert drain(ex, 97) == drain(ref, 97)
    assert state(ex) == state(ref)


# ---------------------------------------------------- opcodes and operands --

@settings(max_examples=60, deadline=None)
@given(program=straight_programs(), chunk=st.integers(0, 9))
def test_random_programs_match_reference(program, chunk):
    assert_same(program, chunk=chunk)


@pytest.mark.parametrize("name", _BODY_OPS)
def test_edge_operands_match_reference(name):
    assert_same(edge_program(name))


def _stores(offsets) -> Program:
    """One shape of each memory op at every offset in *offsets*."""
    b = ProgramBuilder()
    b.data("buf", [3, -5, 7, -9, 11, -13, 15, -17])
    b.emit("la", "r8", "buf")
    b.emit("li", "r1", 41)
    b.emit("cvtif", "f1", "r1")
    for off in offsets:
        b.emit("sw", "r1", "r8", off)
        b.emit("sb", "r1", "r8", off + 16)
        b.emit("fsw", "f1", "r8", off + 24)
        b.emit("lw", "r2", "r8", off)
        b.emit("lb", "r3", "r8", off + 16)
        b.emit("flw", "f2", "r8", off + 24)
        b.emit("addi", "r1", "r2", off)
    b.emit("halt")
    return b.build()


@pytest.mark.parametrize("offsets", [(0, 4), (4, 0)])
def test_offsets_zero_and_four_are_told_apart(offsets, monkeypatch):
    # Instructions that differ only in a zero against a non-zero offset
    # must not run each other's code, whichever is built first: start
    # from no step factories, so this order decides which comes first.
    monkeypatch.setattr(executor, "_STEP_FACTORIES", {})
    assert_same(_stores(offsets))


def test_r0_destinations_execute_and_read_zero():
    b = ProgramBuilder()
    b.data("buf", [7, 2.5])
    b.emit("la", "r8", "buf")
    b.emit("li", "r1", (1 << 64) - 1)
    b.emit("add", "r0", "r1", "r1")
    b.emit("li", "r0", 9)
    b.emit("lw", "r0", "r8", 0)
    b.emit("lb", "r0", "r8", 0)
    b.emit("flw", "f1", "r8", 4)
    b.emit("feq", "r0", "f1", "f1")
    b.emit("cvtfi", "r0", "f1")
    b.emit("li", "r3", 1 << 62)
    b.emit("cvtif", "f3", "r3")
    for _ in range(5):      # 4.6e18 squared five times overflows to inf
        b.emit("fmul", "f3", "f3", "f3")
    b.emit("cvtfi", "r0", "f3")     # int(inf) raises, r0 or not
    b.emit("halt")
    program = b.build()
    ran = both(program)[0]
    records, error = drain(ran)
    assert error[0] is OverflowError
    results = [(r[2][0], r[3][0]) for r in records[2:9]]
    assert results == [(int, "0")] * 4 + [(float, "2.5")] + [(int, "0")] * 2
    assert_same(program)
    # skip() computes r0 results too, so it raises at the same cvtfi,
    # with the same registers, memory and cursor.
    skipped = both(program)[0]
    with pytest.raises(OverflowError):
        skipped.skip(10_000)
    assert state(skipped) == state(ran)


# ---------------------------------------------------------- stream ends --

@pytest.mark.parametrize("chunk", [0, 1, 7])
@pytest.mark.parametrize("cap", [5, 57, 10_000])
def test_halt_and_cap_end_the_stream(cap, chunk):
    program = _halting_loop(0)
    ex, ref = both(program, cap)
    assert drain(ex, chunk) == drain(ref, chunk)
    assert state(ex) == state(ref)
    assert list(ex.run()) == []
    if cap == 10_000:
        assert ex.halted and ex.program.at(ex.pc).op.name == "halt"
    else:
        assert ex.seq == cap and not ex.halted
    # A raised cap resumes the stream where the old one stopped.
    ex.max_instructions = ref.max_instructions = 10_000
    assert drain(ex, chunk) == drain(ref, chunk)
    assert state(ex) == state(ref)


def _off_segment_programs():
    falls_off = ProgramBuilder()
    falls_off.emit("li", "r1", 1)
    falls_off.emit("addi", "r1", "r1", 1)
    jumps_past = ProgramBuilder()
    jumps_past.emit("li", "r1", 1)
    jumps_past.emit("bne", "r1", "r0", "end")
    jumps_past.label("end")
    below = Program([Instruction(OPCODES["j"], None, (), None, 0x10,
                                 CODE_BASE)], MemoryImage(), {}, {})
    return [(falls_off.build(), CODE_BASE + 8),
            (jumps_past.build(), CODE_BASE + 8), (below, 0x10)]


@pytest.mark.parametrize("case", range(3))
def test_off_segment_target_raises_naming_the_pc(case):
    program, pc = _off_segment_programs()[case]
    ex, ref = both(program)
    records, error = drain(ex)
    assert error == (ExecutionError, f"PC out of code segment: {pc:#x}")
    assert (records, error) == drain(ref)
    assert state(ex) == state(ref)
    assert ex.pc == pc and ex.seq == len(records)
    with pytest.raises(ExecutionError) as info:
        both(program)[0].skip(10)
    assert str(info.value) == error[1]


def _raising_mid_block(op: str) -> Program:
    """A counted loop, then a block with *op* ("inf" or "nan") taking
    ``int()`` of a non-finite value in its middle."""
    b = ProgramBuilder()
    b.emit("li", "r1", 0)
    b.emit("li", "r2", 3)
    b.label("loop")
    b.emit("addi", "r1", "r1", 1)
    b.emit("blt", "r1", "r2", "loop")
    b.emit("li", "r3", 1 << 62)
    b.emit("cvtif", "f3", "r3")
    for _ in range(5):      # 4.6e18 squared five times overflows to inf
        b.emit("fmul", "f3", "f3", "f3")
    if op == "nan":
        b.emit("fsub", "f3", "f3", "f3")
    b.emit("cvtfi", "r4", "f3")
    b.emit("addi", "r5", "r1", 1)
    b.emit("halt")
    return b.build()


@pytest.mark.parametrize("warm", [False, True], ids=["plain", "warmed"])
@pytest.mark.parametrize("chunk", [1, 3, 10_000])
@pytest.mark.parametrize("case", ["inf", "nan", "falls-off",
                                  "jumps-past", "below", "between"])
def test_skip_commits_the_cursor_where_run_stops(case, chunk, warm):
    # The error ends skip() where it ends run(): registers, memory and
    # the cursor through the last completed instruction, whether it
    # raises inside a compiled block, in a single step after a resume,
    # or at a target with no instruction.
    if case in ("inf", "nan"):
        program = _raising_mid_block(case)
    elif case == "between":
        program = _between_instructions("j")
    else:
        program = _off_segment_programs()[
            ["falls-off", "jumps-past", "below"].index(case)][0]
    ran = both(program)[0]
    records, error = drain(ran)
    skipped = both(program)[0]
    if warm:
        _WarmState(make_config(2, predictor="stride", steering="vpb")
                   ).install_hooks(skipped)
    with pytest.raises(error[0]) as info:
        while skipped.skip(chunk):
            pass
    assert str(info.value) == error[1]
    assert state(skipped) == state(ran)
    assert skipped.seq == len(records)


def _between_instructions(op: str) -> Program:
    """*op* at code_base+4 to code_base+6, half-way to the next
    instruction; a ``j`` at the end goes there too."""
    srcs = () if op == "j" else (1, 0)
    return Program([
        Instruction(OPCODES["li"], 1, (), 7, None, CODE_BASE),
        Instruction(OPCODES[op], None, srcs, None, CODE_BASE + 6,
                    CODE_BASE + 4),
        Instruction(OPCODES["li"], 2, (), 9, None, CODE_BASE + 8),
        Instruction(OPCODES["j"], None, (), None, CODE_BASE + 6,
                    CODE_BASE + 12)], MemoryImage(), {}, {})


_BETWEEN = (ExecutionError, f"PC between instructions: {CODE_BASE + 6:#x}")


@pytest.mark.parametrize("op", ["j", "bne"])
def test_unaligned_target_raises_naming_the_pc(op):
    ex = FunctionalExecutor(_between_instructions(op))
    records, error = drain(ex)
    assert error == _BETWEEN
    assert [r[0][1] for r in records] == [CODE_BASE, CODE_BASE + 4]
    assert ex.pc == CODE_BASE + 6 and ex.seq == 2
    # skip() from the start, and from the cursor run() left there.
    for skipped in (FunctionalExecutor(_between_instructions(op)), ex):
        with pytest.raises(ExecutionError) as info:
            skipped.skip(10)
        assert (type(info.value), str(info.value)) == _BETWEEN


def test_untaken_unaligned_target_runs_on():
    # A target is checked where it is taken, not where it is compiled.
    ex = FunctionalExecutor(_between_instructions("beq"))
    records, error = drain(ex)
    assert error == _BETWEEN
    assert [r[0][1] for r in records] == [CODE_BASE + 4 * i
                                          for i in range(4)]
    skipped = FunctionalExecutor(_between_instructions("beq"))
    assert skipped.skip(3) == 3
    assert state(skipped)[:2] == state(ex)[:2]
    with pytest.raises(ExecutionError) as info:
        skipped.skip(10)
    assert (type(info.value), str(info.value)) == _BETWEEN
