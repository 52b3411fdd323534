"""Compiled fast-forward: ``skip()`` must match the reference exactly.

``FunctionalExecutor.skip`` runs each basic block as one generated
function and single-steps mid-block resumes, tails, ``halt`` and
off-segment PCs through one-instruction functions from the same
generator.  These tests hold it to an independent reference built only
on the DynInst stream of the test-only interpreter
(``reference_executor.ReferenceExecutor``): the architectural state
and — with training hooks installed — every predictor, BTB and cache
table the hooks train, across random schedules of ``skip(k)`` calls
mixed with partial ``run()`` consumption.
"""

import copy
import functools
import gc
import itertools
import pickle
import weakref
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.frontend import BranchTargetBuffer, CombinedPredictor
from repro.isa import OPCODES, ProgramBuilder
from repro.isa.executor import (ExecutionError, FunctionalExecutor,
                                recompute_result)
from repro.isa.program import INSTRUCTION_BYTES, _expected_banks
from repro.memory import MemoryHierarchy
from repro.predictor.stride import StridePredictor
from repro.workloads import build_workload, workload_names

from ..predictor.test_predictor_properties import _state
from .reference_executor import ReferenceExecutor, record

HOOK_SETS = ("none", "calls", "trainers", "all")


def _halting_loop(seed: int):
    """A branchy loop over a small buffer that halts after ~300 insts."""
    b = ProgramBuilder()
    b.data("buf", [(seed * 7 + i * 13) % 29 for i in range(16)])
    b.emit("li", "r1", 0)
    b.emit("li", "r2", 24 + seed)
    b.emit("la", "r3", "buf")
    b.emit("mov", "r6", "r3")
    b.label("loop")
    b.emit("lw", "r4", "r3", 0)
    b.emit("andi", "r5", "r4", 1)
    b.emit("beq", "r5", "r0", "even")
    b.emit("addi", "r4", "r4", 3)
    b.emit("j", "join")
    b.label("even")
    b.emit("mul", "r4", "r4", "r1")
    b.emit("srai", "r4", "r4", 1)
    b.label("join")
    b.emit("sw", "r4", "r3", 0)
    b.emit("addi", "r3", "r3", 4)
    b.emit("andi", "r7", "r1", 15)
    b.emit("bne", "r7", "r0", "next")
    b.emit("mov", "r3", "r6")
    b.label("next")
    b.emit("addi", "r1", "r1", 1)
    b.emit("blt", "r1", "r2", "loop")
    b.emit("halt")
    return b.build()


def _program(name: str, seed: int):
    if name == "halting-loop":
        return _halting_loop(seed)
    return build_workload(name, seed=seed)


class _Warm:
    """One set of trainable structures (small stride table: more aliasing)."""

    def __init__(self) -> None:
        self.vp = StridePredictor(entries=1024)
        self.bp = CombinedPredictor()
        self.btb = BranchTargetBuffer(256)
        self.memory = MemoryHierarchy()

    def hooks(self, kind: str) -> dict:
        """The executor's hooks of set *kind*.

        "calls": the predictors' decode and fetch calls
        (``predict_update``, ``update``) pre-bound to the site, plus
        both caches.  "trainers": the predictors' trainers alone, with
        the value predictor's ``settle``.  "all": those and every other
        hook.
        """
        if kind == "none":
            return {}
        if kind == "calls":
            hooks = dict(value=lambda pc, slot: functools.partial(
                self.vp.predict_update, pc, slot),
                         branch=lambda pc: functools.partial(self.bp.update,
                                                             pc))
        else:
            hooks = dict(value=self.vp.trainer, branch=self.bp.trainer,
                         settle=self.vp.settle)
        if kind in ("calls", "all"):
            hooks.update(mem=self.memory.l1d.access,
                         code=self.memory.l1i.access)
        if kind == "all":
            hooks.update(target=self.btb.update)
        return hooks

    def calls(self, kind: str) -> dict:
        """The hooks of set *kind* as one decode or fetch call per
        event."""
        hooks = self.hooks(kind)
        if hooks:
            hooks.update(value=self.vp.predict_update,
                         branch=self.bp.update)
        return hooks

    def state(self) -> dict:
        caches = (self.memory.l1i, self.memory.l1d, self.memory.l2)
        return {
            # Trainers record no stats, so compare tables only.
            "stride": _state(self.vp, stats=False),
            "branch": (self.bp.bimodal, self.bp.gshare, self.bp.chooser,
                       self.bp.history),
            "btb": (self.btb._tags, self.btb._targets),
            "caches": [(c._sets, c._stamp, c.stats.accesses, c.stats.misses)
                       for c in caches],
        }


def _line_check_sites(program) -> set:
    """PCs where fast-forward consults the fetch-line tracker."""
    sites = set()
    for inst in program.instructions:
        pc = inst.pc
        if pc == program.code_base or \
                pc >> 5 != (pc - INSTRUCTION_BYTES) >> 5:
            sites.add(pc)
        if inst.target is not None and inst.target >> 5 != pc >> 5:
            sites.add(inst.target)
    return sites


class _Reference:
    """Replays a schedule on the reference interpreter, calling hooks per
    DynInst.

    Mirrors the documented hook contract: per instruction the I-cache
    line check (only at line starts and cross-line landings, with a
    tracker that persists across skips and that ``run()`` leaves
    alone), the value hook per integer non-``r0`` source in slot order,
    the D-cache touch, the branch hook, then the BTB target.
    """

    def __init__(self, program, cap: int, hooks: dict) -> None:
        self.ex = ReferenceExecutor(program, cap)
        self.hooks = hooks
        self.sites = _line_check_sites(program)
        self.line = None

    def skip(self, k: int) -> int:
        done = 0
        for dyn in itertools.islice(self.ex.run(), k):
            self._train(dyn)
            done += 1
        return done

    def consume(self, k: int) -> int:
        return sum(1 for _ in itertools.islice(self.ex.run(), k))

    def _train(self, dyn) -> None:
        h, pc = self.hooks, dyn.pc
        if h.get("code") and pc in self.sites and pc >> 5 != self.line:
            self.line = pc >> 5
            h["code"](pc)
        if h.get("value"):
            for slot, rid in enumerate(dyn.srcs):
                if rid != 0 and not dyn.srcs_fp[slot]:
                    h["value"](pc, slot, dyn.src_values[slot])
        if h.get("mem") and (dyn.is_load or dyn.is_store):
            h["mem"](dyn.mem_addr, dyn.is_store)
        if h.get("branch") and dyn.is_cond_branch:
            h["branch"](pc, dyn.taken)
        if h.get("target") and dyn.taken:
            h["target"](pc, dyn.target)


def _arch(ex) -> tuple:
    return (list(ex.int_regs), [repr(v) for v in ex.fp_regs],
            sorted((k, repr(v)) for k, v in ex.program.memory._mem.items()),
            ex.pc, ex.seq, ex.halted)


def _consume(ex, k: int) -> int:
    return sum(1 for _ in itertools.islice(ex.run(), k))


schedules = st.lists(
    st.tuples(st.sampled_from(["skip", "skip", "run"]),
              st.one_of(st.integers(1, 6), st.integers(7, 60),
                        st.integers(200, 2500))),
    min_size=1, max_size=10)


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(workload_names() + ["halting-loop"] * 3),
       seed=st.integers(0, 1), cap=st.integers(40, 5000),
       schedule=schedules)
# Pinned cases: a halt reached mid-schedule (then skips and runs of a
# halted executor), and a cap hit inside a block after mid-block resumes.
@example(name="halting-loop", seed=0, cap=5_000,
         schedule=[("skip", 5), ("run", 17), ("skip", 3), ("skip", 60),
                   ("run", 2), ("skip", 2_500), ("run", 4), ("skip", 9)])
@example(name="gsmdec", seed=1, cap=1_337,
         schedule=[("run", 9), ("skip", 2), ("skip", 1_200), ("run", 33)])
def test_skip_matches_run_reference(name, seed, cap, schedule):
    schedule = schedule + [("skip", cap)]  # always reach the cap or halt
    for kind in HOOK_SETS:
        warm, ref_warm = _Warm(), _Warm()
        ex = FunctionalExecutor(_program(name, seed), cap)
        if kind != "none":
            ex.set_train_hooks(**warm.hooks(kind))
        ref = _Reference(_program(name, seed), cap, ref_warm.calls(kind))
        for op, k in schedule:
            if op == "skip":
                assert ex.skip(k) == ref.skip(k), (kind, op, k)
            else:
                assert _consume(ex, k) == ref.consume(k), (kind, op, k)
            assert _arch(ex) == _arch(ref.ex), (kind, op, k)
        assert warm.state() == ref_warm.state(), kind
        assert ex.seq == cap or ex.halted


# -------------------------------------------------- every opcode's template --

_EDGE_INTS = [0, 1, -1, 2, 3, (1 << 63) - 1, -(1 << 63), (1 << 64) - 1,
              (1 << 62) + 1, -(1 << 62) - 3, 1 << 53, (1 << 53) + 1]
_int_values = st.one_of(st.sampled_from(_EDGE_INTS),
                        st.integers(-(1 << 70), 1 << 70),
                        st.integers(-300, 300))
_BODY_OPS = sorted(name for name, info in OPCODES.items()
                   if not info.is_branch and name != "halt")


def _fp_slots(name: str) -> set:
    """Register-slot indices (dest first) in the fp bank."""
    return {i for i, bank in enumerate(_expected_banks(OPCODES[name]))
            if bank == "f"}


@st.composite
def straight_programs(draw):
    """Random register values, random ops, forward branches, halt."""
    b = ProgramBuilder()
    b.data("buf", draw(st.lists(_int_values, min_size=4, max_size=4)))
    for r in range(1, 8):
        b.emit("li", f"r{r}", draw(_int_values))
    b.emit("la", "r8", "buf")
    for f in range(1, 4):
        b.emit("cvtif", f"f{f}", f"r{f}")
    labels = []
    for n in range(draw(st.integers(1, 24))):
        if draw(st.integers(0, 5)) == 0:
            label = f"L{n}"
            cond = draw(st.sampled_from(["beq", "bne", "blt", "bge"]))
            b.emit(cond, f"r{draw(st.integers(0, 7))}",
                   f"r{draw(st.integers(0, 7))}", label)
            labels.append(label)
        info = OPCODES[draw(st.sampled_from(_BODY_OPS))]
        operands, fp_slots = [], _fp_slots(info.name)
        slot = 0
        for kind in info.signature:
            if kind in "RS":
                if slot in fp_slots:
                    operands.append(f"f{draw(st.integers(0, 3))}")
                elif info.mem_size and kind == "S" and \
                        slot == len(info.signature) - 2:
                    operands.append("r8")  # base address register
                else:
                    operands.append(f"r{draw(st.integers(0, 7))}")
                slot += 1
            elif kind == "I":
                operands.append(draw(st.sampled_from([0, 4, 8, -4, 63, 1])))
            elif kind == "A":
                operands.append("buf")
        b.emit(info.name, *operands)
        if labels and draw(st.booleans()):
            b.label(labels.pop())
    for label in labels:
        b.label(label)
    b.emit("halt")
    return b.build()


def _outcome(program, step, executor=FunctionalExecutor):
    """Final state after *step* on a fresh copy (execution mutates memory)."""
    ex = executor(copy.deepcopy(program), 10_000)
    try:
        step(ex)
    except (OverflowError, ValueError) as exc:  # int() of inf / nan
        return type(exc)
    return _arch(ex)


@settings(max_examples=60, deadline=None)
@given(program=straight_programs(), chunk=st.integers(1, 9))
def test_every_opcode_skips_like_run(program, chunk):
    reference = _outcome(program, lambda ex: _consume(ex, 10_000),
                         ReferenceExecutor)

    def in_chunks(ex):
        while not ex.halted and ex.skip(chunk):
            pass

    assert _outcome(program, in_chunks) == reference
    assert _outcome(program, lambda ex: ex.skip(10_000)) == reference


_EDGE_REGS = [(1 << 64) - 1, -(1 << 63), (1 << 63) - 1, (1 << 62) + 1,
              -(1 << 62) - 3, -7, 0]


def edge_program(name: str):
    """*name* over every pairing of 64-bit-edge register values."""
    b = ProgramBuilder()
    b.data("buf", [5, -7, (1 << 64) - 1, -(1 << 63) - 9])
    for r, value in enumerate(_EDGE_REGS, start=1):
        b.emit("li", f"r{r}", value)
    b.emit("la", "r8", "buf")
    for f, r in ((1, 1), (2, 4), (3, 7)):   # 1.8e19, 4.6e18 and 0.0
        b.emit("cvtif", f"f{f}", f"r{r}")
    info, fp = OPCODES[name], _fp_slots(name)
    choices = []
    for slot, kind in enumerate(k for k in info.signature if k in "RSIA"):
        if kind == "R":
            choices.append(["f5"] if slot in fp else ["r9"])
        elif kind == "S" and slot in fp:
            choices.append(["f1", "f2", "f3"])
        elif kind == "S" and info.mem_size and \
                slot == len(info.signature) - 2:
            choices.append(["r8", "r1", "r3"])  # r1, r3: addresses wrap
        elif kind == "S":
            choices.append([f"r{r}" for r in range(1, 8)])
        elif kind == "I":
            choices.append([0, 4, 8, 12, 63, -4])
        else:
            choices.append(["buf"])
    for n, operands in enumerate(itertools.product(*choices)):
        b.emit(name, *operands)
        # Keep every result in its own word: a register result directly,
        # a stored word read back before a later store overwrites it.
        if info.is_store:
            result = "f5" if 0 in fp else "r9"
            b.emit("flw" if 0 in fp else "lw", result, *operands[1:])
        elif info.has_dest:
            result = operands[0]
        else:
            continue
        b.emit("fsw" if result[0] == "f" else "sw", result, "r8", 16 + 8 * n)
    b.emit("halt")
    return b.build()


@pytest.mark.parametrize("name", _BODY_OPS)
def test_opcode_edge_operands_skip_like_run(name):
    """Each opcode over every pairing of 64-bit-edge register values."""
    program = edge_program(name)
    reference = _outcome(program, lambda ex: _consume(ex, 10_000),
                         ReferenceExecutor)
    assert _outcome(program, lambda ex: ex.skip(10_000)) == reference
    assert _outcome(program, lambda ex: [ex.skip(3) for _ in range(200)]) \
        == reference


# ------------------------------------------------------- division is exact --

def _divide(op: str, a: int, b: int) -> list:
    """``op``'s result via run(), skip() and recompute_result."""
    builder = ProgramBuilder()
    builder.emit("li", "r1", a)
    builder.emit("li", "r2", b)
    builder.emit(op, "r3", "r1", "r2")
    builder.emit("halt")
    trace = list(FunctionalExecutor(builder.build()).run())
    skipped = FunctionalExecutor(builder.build())
    skipped.skip(3)
    return [trace[-1].result, skipped.int_regs[3],
            recompute_result(op, (a, b), None)[1]]


@pytest.mark.parametrize("op,a,b,expected", [
    ("div", (1 << 62) + 1, 1, (1 << 62) + 1),
    ("rem", -(1 << 62) - 3, 2, -1),
    ("div", -7, 2, -3),
    ("rem", -7, 2, -1),
    ("div", 7, -2, -3),
    ("rem", 7, -2, 1),
    ("div", -(1 << 63), -1, -(1 << 63)),   # the one overflowing quotient
    ("rem", 5, 0, 0),
    ("div", 5, 0, 0),
])
def test_division_is_exact_truncating(op, a, b, expected):
    assert _divide(op, a, b) == [expected] * 3


# --------------------------------------------------------- edges and pickling --

def test_off_segment_pc_raises_like_run():
    b = ProgramBuilder()
    b.emit("li", "r1", 1)
    b.emit("addi", "r1", "r1", 1)
    program = b.build()   # no halt: falls off the end
    assert FunctionalExecutor(program).skip(2) == 2
    with pytest.raises(ExecutionError):
        FunctionalExecutor(program).skip(3)
    with pytest.raises(ExecutionError):
        list(ReferenceExecutor(program).run())


def test_warmed_executor_pickles_mid_run():
    warm = _Warm()
    ex = FunctionalExecutor(build_workload("gsmdec"), 50_000)
    ex.set_train_hooks(**warm.hooks("all"))
    ex.skip(7_001)            # ends mid-block: compiled blocks + steps
    _consume(ex, 333)
    ex.skip(2_000)
    assert ex._code is not None and ex._steps
    state = ex.__getstate__()
    assert "_steps" in FunctionalExecutor._UNPICKLED
    assert not set(FunctionalExecutor._UNPICKLED) & set(state)

    restored = pickle.loads(pickle.dumps(ex))
    assert _arch(restored) == _arch(ex)
    assert restored._train_hooks is None and restored._code is None
    assert restored._steps is None
    # From the same cursor, the restored copy's run() yields the same
    # records as the original's, through a step table of its own.
    records = [record(d) for d in itertools.islice(ex.run(), 1_500)]
    assert [record(d) for d in itertools.islice(restored.run(), 1_500)] \
        == records
    assert len(records) == 1_500 and restored._steps
    # The restored copy fast-forwards plain; its architecture follows
    # the hooked original's exactly.
    assert restored.skip(5_000) == ex.skip(5_000)
    assert _arch(restored) == _arch(ex)


def test_drained_executor_is_freed_without_the_collector():
    # Steps and compiled blocks hold the register lists and the memory
    # image, never the executor, so reference counting alone frees it.
    ex = FunctionalExecutor(build_workload("gsmdec"), 6_000)
    ex.set_train_hooks(**_Warm().hooks("all"))
    alive = weakref.ref(ex)
    gc.collect()
    gc.disable()
    try:
        ex.skip(2_500)
        deque(ex.run(), maxlen=0)
        assert ex.seq == 6_000 and ex._steps and ex._code is not None
        del ex
        assert alive() is None
    finally:
        gc.enable()
