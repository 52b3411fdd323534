"""Functional executor: runs a µRISC program and emits the dynamic trace.

The executor is *architectural only* — no timing.  It produces the
committed instruction stream (:class:`~repro.isa.instruction.DynInst`)
that the cycle-level simulator in :mod:`repro.core` replays.  Because the
trace carries true operand values, the timing model can classify value
predictions at decode and apply their effects at the paper's verification
points.

Opcode semantics are written once, as source templates (``_EXPRS``,
``_LOADS``, ``_STORES``, ``_BRANCH_CMP``, ``_WRAP_X``) that one function,
:func:`_emit`, turns into an instruction's source lines.  ``run()``
builds one step function per static instruction from it, through a
factory compiled once per opcode shape; ``skip()`` compiles one function
per basic block from it.  :func:`recompute_result`, the golden model's
re-execution, keeps its own lambda tables, independent of the templates.

Integer arithmetic wraps at 64 bits (two's complement), so value
sequences behave like the Alpha integers the paper's predictor saw.
"""

from __future__ import annotations

import functools
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

from .instruction import DynInst, Instruction
from .opcodes import OPCODES
from .program import INSTRUCTION_BYTES, Program
from .registers import FP_BASE, NUM_LOGICAL_REGS, ZERO_REG

__all__ = ["ExecutionError", "FunctionalExecutor", "SETTLE_INTERVAL",
           "execute", "recompute_result"]

_INT_MIN = -(1 << 63)
_WRAP = 1 << 64

#: Most instructions a warmed :meth:`FunctionalExecutor.skip` runs
#: between two calls of its *settle* hook.  It bounds how many values a
#: queuing value trainer holds at once.
SETTLE_INTERVAL = 8_192


def _wrap64(value: int) -> int:
    """Wrap a Python int to signed 64-bit two's complement."""
    return (value - _INT_MIN) % _WRAP + _INT_MIN


class ExecutionError(RuntimeError):
    """Raised when a program misbehaves (bad PC, runaway execution...)."""


def _div(a: int, b: int) -> int:
    """Truncating (C-style) division wrapped to 64 bits; ``x / 0`` is 0."""
    if not b:
        return 0
    q = abs(a) // abs(b)
    return _wrap64(q if (a < 0) == (b < 0) else -q)


def _rem(a: int, b: int) -> int:
    """Remainder of :func:`_div`, with the dividend's sign; ``x % 0`` is 0."""
    if not b:
        return 0
    r = abs(a) % abs(b)
    return _wrap64(-r if a < 0 else r)


def _int_binops() -> Dict[str, Callable[[int, int], int]]:
    return {
        "add": lambda a, b: _wrap64(a + b),
        "sub": lambda a, b: _wrap64(a - b),
        "and": lambda a, b: a & b,
        "or": lambda a, b: a | b,
        "xor": lambda a, b: a ^ b,
        "sll": lambda a, b: _wrap64(a << (b & 63)),
        "srl": lambda a, b: (a % _WRAP) >> (b & 63),
        "sra": lambda a, b: a >> (b & 63),
        "slt": lambda a, b: int(a < b),
        "sltu": lambda a, b: int((a % _WRAP) < (b % _WRAP)),
        "min": lambda a, b: a if a < b else b,
        "max": lambda a, b: a if a > b else b,
        "mul": lambda a, b: _wrap64(a * b),
        "div": _div,
        "rem": _rem,
    }


_IMM_ALIAS = {"addi": "add", "andi": "and", "ori": "or", "xori": "xor",
              "slli": "sll", "srli": "srl", "srai": "sra", "slti": "slt"}

_FP_BINOPS: Dict[str, Callable[[float, float], float]] = {
    "fadd": lambda a, b: a + b,
    "fsub": lambda a, b: a - b,
    "fmul": lambda a, b: a * b,
    "fdiv": lambda a, b: (a / b) if b else 0.0,
}

_FP_COMPARES: Dict[str, Callable[[float, float], int]] = {
    "feq": lambda a, b: int(a == b),
    "flt": lambda a, b: int(a < b),
    "fle": lambda a, b: int(a <= b),
}

#: Shared op tables for :func:`recompute_result` (built once).
_REEXEC_INT_OPS = _int_binops()


def recompute_result(name: str, src_values: tuple, imm: Optional[int]):
    """Re-execute one register-to-register operation's semantics.

    Returns ``(True, result)`` for operations whose result depends only
    on the source values and immediate (the re-executable set used by
    the golden-model co-simulator), and ``(False, None)`` for those
    that touch memory or control flow, whose results the trace must be
    trusted for.
    """
    if name in _REEXEC_INT_OPS:
        return True, _REEXEC_INT_OPS[name](src_values[0], src_values[1])
    if name in _IMM_ALIAS or name in ("li", "la"):
        # Immediate forms need the static instruction's immediate.
        if imm is None:
            return False, None
        if name in ("li", "la"):
            return True, imm
        return True, _REEXEC_INT_OPS[_IMM_ALIAS[name]](src_values[0], imm)
    if name in ("mov", "fmov"):
        return True, src_values[0]
    if name in _FP_BINOPS:
        return True, _FP_BINOPS[name](src_values[0], src_values[1])
    if name in _FP_COMPARES:
        return True, _FP_COMPARES[name](src_values[0], src_values[1])
    if name == "fneg":
        return True, -src_values[0]
    if name == "cvtif":
        return True, float(src_values[0])
    if name == "cvtfi":
        return True, _wrap64(int(src_values[0]))
    return False, None


#: A step function: applies one static instruction's effect and returns
#: its record for dynamic position ``seq``, or ``None`` at ``halt``.
_Step = Callable[[int], Optional[DynInst]]


class FunctionalExecutor:
    """Executes a program, yielding the dynamic committed stream.

    Args:
        program: assembled program.
        max_instructions: hard cap on dynamic instructions; hitting it
            ends the trace cleanly (the synthetic workloads run far past
            any interesting warm-up, like the paper's run-to-completion
            Mediabench runs, just shorter).
    """

    def __init__(self, program: Program,
                 max_instructions: int = 1_000_000) -> None:
        self.program = program
        self.max_instructions = max_instructions
        self.int_regs: List[int] = [0] * FP_BASE
        self.fp_regs: List[float] = [0.0] * (NUM_LOGICAL_REGS - FP_BASE)
        # Execution cursor.  Kept on the instance (not as generator
        # locals) so the executor can be snapshotted mid-run and a new
        # ``run()`` generator resumes exactly where the old one stopped.
        self.pc: int = program.code_base
        self.seq: int = 0
        self.halted: bool = False
        self._train_hooks: Optional[tuple] = None
        self._code: Optional[_BlockCode] = None
        self._steps: Optional[Dict[int, _Step]] = None

    # -- pickling -------------------------------------------------------------

    #: Derived attributes rebuilt on restore: the step table and the
    #: compiled fast-forward blocks are generated code over the live
    #: register lists, and the training hooks reference external
    #: predictor objects — none pickle, all are rebuilt (or, for hooks,
    #: reinstalled by the caller) after restore.
    _UNPICKLED = ("_train_hooks", "_code", "_steps")

    def __getstate__(self):
        state = dict(self.__dict__)
        for name in self._UNPICKLED:
            state.pop(name, None)
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        for name in self._UNPICKLED:
            setattr(self, name, None)

    # -- main loop ------------------------------------------------------------

    def run(self) -> Iterator[DynInst]:
        """Yield :class:`DynInst` records until ``halt`` or the cap.

        Resumes from the instance cursor (``pc``/``seq``), so a partial
        consumption — or a :meth:`skip` fast-forward — followed by a new
        ``run()`` call continues the same dynamic stream.  The cursor is
        committed *before* each yield: a snapshot taken while a consumer
        holds the yielded instruction counts it as already delivered.

        Each static instruction runs through its step function (see
        :func:`_step`), built on its first execution and kept in a
        per-executor table keyed by pc; the step applies the effect and
        returns the record, or ``None`` at ``halt``.
        """
        if self.halted:
            return
        steps = self._steps
        if steps is None:
            steps = self._steps = {}
        program = self.program
        width = INSTRUCTION_BYTES
        pc = self.pc
        seq = self.seq
        cap = self.max_instructions
        while seq < cap:
            try:
                step = steps[pc]
            except KeyError:
                step = steps[pc] = _step(program, self.int_regs,
                                         self.fp_regs, pc)
            dyn = step(seq)
            if dyn is None:  # halt: pc stays on the halt instruction
                self.halted = True
                return
            seq += 1
            pc = dyn.static.target if dyn.taken else pc + width
            self.seq = seq
            self.pc = pc
            yield dyn

    # -- fast-forward ---------------------------------------------------------

    def skip(self, count: int) -> int:
        """Fast-forward up to *count* instructions; returns how many ran.

        Architectural effects (registers, memory, ``pc``/``seq``) are
        bit-identical to consuming the same instructions from
        :meth:`run`; no :class:`DynInst` records are built.  Every basic
        block that fits in the remaining count runs as one compiled
        function (:class:`_BlockCode`); mid-block resumes, the tail,
        ``halt`` and off-segment PCs single-step through one-instruction
        functions from the same generator.  Stops early at ``halt`` or
        the ``max_instructions`` cap, and raises where :meth:`run`
        would, with the cursor committed through the last completed
        instruction as :meth:`run` leaves it.

        An installed *settle* hook (:meth:`set_train_hooks`) runs at
        least once every :data:`SETTLE_INTERVAL` instructions and
        whenever this returns or raises, so nothing a hook queued is
        left untrained for the caller to read.
        """
        if self.halted or count <= 0:
            return 0
        left = min(count, self.max_instructions - self.seq)
        if left <= 0:
            return 0
        _check_pc(self.program, self.pc)
        code = self._code
        if code is None:
            code = self._code = _BlockCode(self.program, self.int_regs,
                                           self.fp_regs, self._train_hooks)
        lengths, blocks, steps = code.lengths, code.blocks, code.steps
        settle = code.settle
        idx = (self.pc - self.program.code_base) // INSTRUCTION_BYTES
        todo = left
        # Settle before the block or step that would take ``todo``
        # below ``due``; without a settle hook, never.
        due = -1 if settle is None else todo - SETTLE_INTERVAL
        try:
            while todo:
                n = lengths[idx]
                if 0 < n <= todo:
                    if todo - n < due:
                        settle()
                        due = todo - SETTLE_INTERVAL
                    block = blocks[idx]
                    if block is None:
                        block = blocks[idx] = code.build(idx, idx + n)
                    idx = block()
                    todo -= n
                    continue
                if todo <= due:
                    settle()
                    due = todo - SETTLE_INTERVAL
                step = steps[idx]
                if step is None:
                    step = steps[idx] = code.build(idx, idx + 1)
                nxt = step()
                if nxt < 0:  # halt: pc stays on the halt instruction
                    self.halted = True
                    break
                idx = nxt
                todo -= 1
        except Exception as exc:
            failed = code.raised_at(idx, exc.__traceback__)
            self.pc = code.pc(failed)
            self.seq += left - todo + failed - idx
            raise
        finally:
            if settle is not None:
                settle()
        done = left - todo
        self.pc = code.pc(idx)
        self.seq += done
        return done

    # -- functional warming ---------------------------------------------------

    def set_train_hooks(self, value=None, branch=None, target=None,
                        mem=None, code=None, settle=None) -> None:
        """Install functional-warming callbacks applied during :meth:`skip`.

        With hooks installed, fast-forward additionally *observes* each
        instruction the way the timing model's front end and decode
        stage would, so microarchitectural predictor state can be
        trained continuously at compiled speed (SMARTS-style functional
        warming).  Architectural effects are unchanged — the hooks only
        read state.  Per instruction they fire in this order: *code*,
        *value* (slot order), *mem*, *branch*, *target*.

        Args:
            value: ``factory(pc, slot) -> train(actual)`` per static
                integer source that is not ``r0`` — exactly the operands
                decode trains the value predictor on (a value
                predictor's ``trainer``,
                :class:`repro.predictor.ValuePredictor`).
            branch: ``factory(pc) -> train(taken)`` per static
                conditional branch, the direction predictor's training
                (:meth:`repro.frontend.CombinedPredictor.trainer`).
            target: ``(pc, target)`` per taken control transfer
                (conditional or not), the BTB's training event.
            mem: ``(addr, is_write)`` per load/store, the D-cache
                touch.
            code: ``(pc)`` on each fetch-line change (the same
                ``pc >> 5`` granularity the fetch engine tracks), the
                I-cache touch.  The line tracker persists across
                :meth:`skip` calls and is consulted only where a line
                starts or a cross-line branch or jump lands.
            settle: ``()``, training what *value*'s trainers queued (a
                value predictor's ``settle``); :meth:`skip` calls it at
                least every :data:`SETTLE_INTERVAL` instructions and
                whenever it returns or raises.

        A factory runs once per static site, when its code is compiled,
        so a trainer resolves its table index once.  Passing all
        ``None`` uninstalls.  Hooks do not survive
        pickling: a restored executor fast-forwards plain until hooks
        are installed again.
        """
        self._train_hooks = (value, branch, target, mem, code, settle)
        self._code = None


#: Wraps the temporary ``x`` to signed 64 bits; the range test keeps the
#: call to :func:`_wrap64` (``w``) off the common in-range path.
_WRAP_X = "if not -0x8000000000000000 <= x < 0x8000000000000000: x = w(x)"

#: Register-writing operations as source expressions over the operands
#: ``{a}``/``{b}`` (``{b}`` is the immediate for immediate forms), and
#: whether the result wraps to 64 bits.
_EXPRS = {
    "add": ("{a} + {b}", True), "sub": ("{a} - {b}", True),
    "mul": ("{a} * {b}", True), "sll": ("{a} << ({b} & 63)", True),
    "and": ("{a} & {b}", False), "or": ("{a} | {b}", False),
    "xor": ("{a} ^ {b}", False),
    "srl": ("({a} % 0x10000000000000000) >> ({b} & 63)", False),
    "sra": ("{a} >> ({b} & 63)", False),
    "slt": ("1 if {a} < {b} else 0", False),
    "sltu": ("1 if {a} % 0x10000000000000000 < {b} % 0x10000000000000000"
             " else 0", False),
    "min": ("{a} if {a} < {b} else {b}", False),
    "max": ("{a} if {a} > {b} else {b}", False),
    "div": ("_div({a}, {b})", False), "rem": ("_rem({a}, {b})", False),
    "li": ("{b}", False), "la": ("{b}", False),
    "mov": ("{a}", False), "fmov": ("{a}", False),
    "fadd": ("{a} + {b}", False), "fsub": ("{a} - {b}", False),
    "fmul": ("{a} * {b}", False), "fdiv": ("{a} / {b} if {b} else 0.0", False),
    "feq": ("1 if {a} == {b} else 0", False),
    "flt": ("1 if {a} < {b} else 0", False),
    "fle": ("1 if {a} <= {b} else 0", False),
    "fneg": ("-{a}", False), "cvtif": ("float({a})", False),
    "cvtfi": ("int({a})", True),
}

#: Loaded value as an expression over the fetched word ``g(x, 0)``.
_LOADS = {"lw": ("int(g(x, 0))", True), "lb": ("int(g(x, 0)) & 0xFF", False),
          "flw": ("float(g(x, 0))", False)}

#: Stored value as an expression over the value operand ``{}``.
_STORES = {"sw": "{}", "sb": "int({}) & 0xFF", "fsw": "{}"}

_BRANCH_CMP = {"beq": "==", "bne": "!=", "blt": "<", "bge": ">="}


def _emit(name: str, regs: Sequence[str], dest: Optional[str], imm,
          record: bool, touch: Sequence[str] = ()
          ) -> Tuple[List[str], Optional[str]]:
    """One instruction's architectural effect as source lines.

    ``run()``'s step factories and ``skip()``'s block compiler both
    call it.  *regs* and *dest* name the source and destination
    registers (``r[3]``; ``r[s0]`` in a step); *dest* is ``None`` for
    ``r0``, whose value is computed (it may raise) but never written.
    *imm* is the immediate or ``None``; a zero memory offset adds
    nothing.  *touch* runs once a memory address is in ``x``.  With
    *record*, sources are read into ``a``/``b``, the immediate is named
    ``imm`` (*imm* only tells zero from non-zero) and the result stays
    in ``x``, for ``run()``'s record.  Returns the lines and the branch
    condition (``None`` unless a conditional branch) for the caller.
    """
    op = OPCODES[name]
    lines = [f"{v} = {reg}" for v, reg in zip("ab", regs)] if record else []
    offset = imm
    if record:
        regs, imm = "ab"[:len(regs)], "imm"
    if op.is_branch:
        if name == "j":
            return lines, None
        return lines, f"{regs[0]} {_BRANCH_CMP[name]} {regs[1]}"
    if op.is_load or op.is_store:
        lines += [f"x = {regs[-1]} + {imm}" if offset else f"x = {regs[-1]}",
                  _WRAP_X, *touch]
        if op.is_store:
            return lines + [f"m[x] = {_STORES[name].format(regs[0])}"], None
        expr, wraps = _LOADS[name]
    elif op.has_dest:
        expr, wraps = _EXPRS[_IMM_ALIAS.get(name, name)]
        expr = expr.format(a=regs[0] if regs else None,
                           b=regs[1] if len(regs) > 1 else imm)
    else:  # nop, halt
        return lines, None
    if dest is None:
        return lines + [f"x = {expr}"], None
    if wraps:
        return lines + [f"x = {expr}", _WRAP_X, f"{dest} = x"], None
    if record:
        return lines + [f"x = {expr}", f"{dest} = x"], None
    return lines + [f"{dest} = {expr}"], None


def _check_pc(program: Program, pc: int) -> None:
    """Raise :class:`ExecutionError` unless an instruction starts at *pc*."""
    offset = pc - program.code_base
    if not 0 <= offset < len(program) * INSTRUCTION_BYTES:
        raise ExecutionError(f"PC out of code segment: {pc:#x}")
    if offset % INSTRUCTION_BYTES:
        raise ExecutionError(f"PC between instructions: {pc:#x}")


# -- run(): one step function per static instruction --------------------------

def _step_shape(inst: Instruction) -> tuple:
    """Every property of *inst* its step's source depends on.

    The opcode, each source's bank, the destination as :func:`_emit`
    takes it (``None`` for none or ``r0``, else ``r[d]`` or ``f[d]``)
    and the immediate form (``None``, or whether it is non-zero: a zero
    offset emits no add).
    """
    dest, imm = inst.dest, inst.imm
    return (inst.op.name, inst.srcs_fp,
            None if dest in (None, ZERO_REG)
            else "f[d]" if inst.dest_fp else "r[d]",
            None if imm is None else imm != 0)


#: Step factories by shape, each compiled on first use.  Bounded by the
#: closed opcode table; nothing is compiled at import.
_STEP_FACTORIES: Dict[tuple, Callable[..., _Step]] = {}

#: Globals of the generated steps; holds no functions, so no cycles.
_STEP_GLOBALS = {"D": DynInst, "w": _wrap64, "_div": _div, "_rem": _rem}


def _step_factory(name: str, srcs_fp: tuple, dest: Optional[str],
                  imm) -> Callable[..., _Step]:
    """Compile the step factory for one shape (see :func:`_step_shape`).

    Only the shape reaches the generated source.  Everything else enters
    as a factory argument: the live register lists ``r``/``f``, the
    memory dict ``m`` and its ``get`` ``g``, the static instruction the
    record references, the bank-local source and destination indices
    ``s0``/``s1``/``d`` and the immediate.  The step applies the effect
    (:func:`_emit`) and builds the record from the values that vary per
    execution.
    """
    op = OPCODES[name]
    regs = [f"{'f' if fp else 'r'}[s{i}]" for i, fp in enumerate(srcs_fp)]
    lines, cond = _emit(name, regs, dest, imm, True,
                        ["e = x"] if op.is_load else ())
    if cond is not None:
        lines.append(f"k = {cond}")
    if name == "halt":
        lines.append("return None")
    else:
        values = "".join(f"{v}, " for v in "ab"[:len(regs)])
        result = "x" if dest else "0" if op.has_dest else "None"
        addr = "e" if op.is_load else "x" if op.is_store else "None"
        taken = "True" if name == "j" else "None" if cond is None else "k"
        lines.append(f"return D(seq, inst, ({values}), {result}, {addr}, "
                     f"{taken})")
    source = ("def factory(r, f, m, g, inst, s0, s1, d, imm):\n"
              " def step(seq):\n  " + "\n  ".join(lines)
              + "\n return step\n")
    exec(compile(source, f"<step {name}>", "exec"), _STEP_GLOBALS)
    return _STEP_GLOBALS.pop("factory")


def _step(program: Program, int_regs: list, fp_regs: list,
          pc: int) -> _Step:
    """The step function of the instruction at *pc*.

    It holds the live register lists and the memory image, never the
    executor.  Raises :class:`ExecutionError` (:func:`_check_pc`).
    """
    _check_pc(program, pc)
    inst = program.at(pc)
    shape = _step_shape(inst)
    factory = _STEP_FACTORIES.get(shape)
    if factory is None:
        factory = _STEP_FACTORIES[shape] = _step_factory(*shape)
    local = [s - FP_BASE if fp else s
             for s, fp in zip(inst.srcs, inst.srcs_fp)] + [None, None]
    dest = inst.dest
    memory = program.memory._mem
    return factory(int_regs, fp_regs, memory, memory.get, inst, local[0],
                   local[1], dest - FP_BASE if inst.dest_fp else dest,
                   inst.imm)


# -- skip(): one compiled function per basic block ----------------------------

def _reg(rid: int) -> str:
    """Source expression naming register *rid* in generated code."""
    return f"r[{rid}]" if rid < FP_BASE else f"f[{rid - FP_BASE}]"


class _BlockCode:
    """One executor's fast-forward code for one hook set, built lazily.

    ``lengths[i]`` is the length of the basic block that starts at
    static index ``i``: 0 inside a block, at ``halt`` and at the
    sentinels past the end.  Blocks end after a branch or jump, before a
    branch target, before ``halt``, and after :data:`SETTLE_INTERVAL`
    instructions.  ``blocks[i]`` holds that block's compiled function
    once it has run, ``steps[i]`` instruction ``i``'s one-instruction
    function; each returns the next static index
    (``-1 - i`` for a ``halt``).  Every function is compiled on first
    use from its own source, so only code that runs is compiled and no
    compile call covers more than one block.  The fall-off and each bad
    branch target lead to a sentinel index past the end whose step
    raises as ``run()`` would.

    Generated code applies, per instruction, the installed hooks in
    :meth:`FunctionalExecutor.set_train_hooks` order and then the
    architectural effect (:func:`_emit`).  Its globals (``ns``) are the
    live register lists, the memory image, the hooks, per-site trainers
    and the fetch-line tracker ``L``; the compiled functions themselves
    are popped out of ``ns`` so it never references them (a namespace
    holding its own functions is a reference cycle that keeps the hook
    targets alive until a full garbage collection).
    """

    __slots__ = ("insts", "base", "lengths", "blocks", "steps", "ns",
                 "targets", "faults", "line_checks", "value", "branch",
                 "settle")

    def __init__(self, program: Program, int_regs: list, fp_regs: list,
                 hooks: Optional[tuple]) -> None:
        self.value, self.branch, target, mem, code, self.settle = \
            hooks or (None,) * 6
        self.insts = insts = program.instructions
        self.base = base = program.code_base
        size = len(insts)
        memory = program.memory._mem
        self.ns = {"r": int_regs, "f": fp_regs, "m": memory,
                   "g": memory.get, "w": _wrap64, "_div": _div, "_rem": _rem,
                   "L": None, "T": target, "D": mem, "C": code}
        leader = [False] * (size + 1)
        leader[0] = True
        # Branch targets as static indices.  The fall-off and each target
        # with no instruction get sentinel indices, by pc, from ``size``.
        faults = self.faults = {base + size * INSTRUCTION_BYTES: size}
        self.targets = targets = [size] * size
        # Sites of the I-cache line check: where a fetch line starts and
        # where a cross-line branch or jump lands.  Only these can
        # change the line, so only these consult the tracker.
        self.line_checks = checks = [False] * size
        for i, inst in enumerate(insts):
            pc = base + i * INSTRUCTION_BYTES
            if i == 0 or pc >> 5 != (pc - INSTRUCTION_BYTES) >> 5:
                checks[i] = True
            if inst.op.is_branch:
                leader[i + 1] = True
                t, off = divmod(inst.target - base, INSTRUCTION_BYTES)
                if off or not 0 <= t < size:
                    targets[i] = faults.setdefault(inst.target,
                                                   size + len(faults))
                    continue
                targets[i] = t
                leader[t] = True
                checks[t] = checks[t] or inst.target >> 5 != pc >> 5
        # Straight-line run from each index to its block's end; halt
        # is never part of a block, and no block outruns the settle
        # interval.
        span = [0] * (size + 1)
        for i in range(size - 1, -1, -1):
            op = insts[i].op
            if op.name != "halt":
                if span[i + 1] == SETTLE_INTERVAL:
                    leader[i + 1] = True
                span[i] = 1 if op.is_branch or leader[i + 1] \
                    else 1 + span[i + 1]
        self.lengths = [n if lead else 0 for n, lead in zip(span, leader)] \
            + [0] * (len(faults) - 1)
        self.blocks: List[Optional[Callable[[], int]]] = [None] * size
        self.steps: List[Optional[Callable[[], int]]] = [None] * size + [
            functools.partial(_check_pc, program, pc) for pc in faults]

    def build(self, start: int, stop: int) -> Callable[[], int]:
        """Compile static instructions ``[start, stop)`` into a function."""
        lines: List[str] = []
        for i in range(start, stop):
            lines += self._lines(i)
        last = self.insts[stop - 1].op
        if not (last.is_branch or last.name == "halt"):
            lines.append(f"return {stop}")
        source = "def block():\n global L\n " + "\n ".join(lines)
        ns = self.ns
        exec(compile(source, f"<fast-forward {start}:{stop}>", "exec"), ns)
        return ns.pop("block")

    def pc(self, i: int) -> int:
        """The pc of static index *i*; a sentinel's is the target it
        stands for."""
        if i < len(self.insts):
            return self.base + i * INSTRUCTION_BYTES
        return list(self.faults)[i - len(self.insts)]

    def raised_at(self, start: int, tb) -> int:
        """The static index of the instruction that raised in the
        function run at index *start*, from its traceback *tb*.

        A compiled function's failing line maps back to its instruction
        by regenerating its lines; a sentinel's step raises for itself.
        """
        while tb is not None and not tb.tb_frame.f_code.co_filename \
                .startswith("<fast-forward "):
            tb = tb.tb_next
        i = start
        if tb is not None:
            line = tb.tb_lineno - 2    # below "def block():", " global L"
            while (n := len(self._lines(i))) < line:
                line -= n
                i += 1
        return i

    def _lines(self, i: int) -> List[str]:
        """Source lines for static instruction *i*: hooks, then effect."""
        inst = self.insts[i]
        op = inst.op
        if op.name == "halt":
            return [f"return {-1 - i}"]
        pc = self.base + i * INSTRUCTION_BYTES
        ns = self.ns
        lines = []
        if self.line_checks[i] and ns["C"] is not None:
            line = pc >> 5
            lines += [f"if L != {line}:", f" L = {line}", f" C({pc})"]
        if self.value is not None:
            for slot, rid in enumerate(inst.srcs):
                if rid == ZERO_REG or rid >= FP_BASE:
                    continue  # decode predicts neither r0 nor fp sources
                trainer = f"v{i}_{slot}"
                if trainer not in ns:
                    ns[trainer] = self.value(pc, slot)
                lines.append(f"{trainer}(r[{rid}])")
        dest = inst.dest
        body, cond = _emit(
            op.name, [_reg(s) for s in inst.srcs],
            None if dest in (None, ZERO_REG) else _reg(dest), inst.imm,
            False, [f"D(x, {op.is_store})"] if ns["D"] is not None else ())
        lines += body
        if not op.is_branch:
            return lines
        taken = [f"T({pc}, {inst.target})"] if ns["T"] is not None else []
        taken.append(f"return {self.targets[i]}")
        if cond is None:  # j
            return lines + taken
        if self.branch is not None:
            if f"b{i}" not in ns:
                ns[f"b{i}"] = self.branch(pc)
            lines += [f"k = {cond}", f"b{i}(k)"]
            cond = "k"
        return lines + [f"if {cond}:"] + [" " + t for t in taken] \
            + [f"return {i + 1}"]


def execute(program: Program, max_instructions: int = 1_000_000) -> List[DynInst]:
    """Run *program* to completion (or the cap) and return the full trace."""
    return list(FunctionalExecutor(program, max_instructions).run())
