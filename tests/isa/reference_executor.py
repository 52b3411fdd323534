"""A test-only reference interpreter for the functional executor.

``ReferenceExecutor.run()`` interprets one record at a time: a chain of
tests over the opcode name, the lambda tables that
:func:`repro.isa.executor.recompute_result` also uses, and a 64-bit
wrap on every wrapping result.  It shares no code with the templates
that ``FunctionalExecutor.run()`` and ``skip()`` are generated from,
so the tests hold both of those to it: records field for field
(:func:`record`), then registers and memory (:func:`state`).
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, Iterator, List, Optional

from repro.isa.executor import (_FP_BINOPS, _FP_COMPARES, _IMM_ALIAS,
                                ExecutionError, _int_binops, _wrap64)
from repro.isa.instruction import DynInst, Instruction
from repro.isa.program import INSTRUCTION_BYTES, Program
from repro.isa.registers import FP_BASE, NUM_LOGICAL_REGS, ZERO_REG

_BRANCH_TESTS: Dict[str, Callable[[int, int], bool]] = {
    "beq": lambda a, b: a == b,
    "bne": lambda a, b: a != b,
    "blt": lambda a, b: a < b,
    "bge": lambda a, b: a >= b,
}


class ReferenceExecutor:
    """Interprets *program* with ``FunctionalExecutor``'s cursor contract.

    The cursor (``pc``, ``seq``) is committed before each yield, a new
    ``run()`` resumes from it, ``halt`` sets ``halted`` and leaves
    ``pc`` on the ``halt``, and the cap ends the stream cleanly.
    """

    def __init__(self, program: Program,
                 max_instructions: int = 1_000_000) -> None:
        self.program = program
        self.max_instructions = max_instructions
        self.int_regs: List[int] = [0] * FP_BASE
        self.fp_regs: List[float] = [0.0] * (NUM_LOGICAL_REGS - FP_BASE)
        self.pc: int = program.code_base
        self.seq: int = 0
        self.halted: bool = False
        self._int_ops = _int_binops()

    def _read(self, rid: int):
        if rid < FP_BASE:
            return self.int_regs[rid]
        return self.fp_regs[rid - FP_BASE]

    def _write(self, rid: int, value) -> None:
        if rid < FP_BASE:
            if rid != ZERO_REG:
                self.int_regs[rid] = value
        else:
            self.fp_regs[rid - FP_BASE] = value

    def run(self) -> Iterator[DynInst]:
        """Yield :class:`DynInst` records until ``halt`` or the cap."""
        if self.halted:
            return
        program = self.program
        memory = program.memory
        int_ops = self._int_ops
        read = self._read
        write = self._write
        pc = self.pc
        end_pc = program.code_base + len(program) * INSTRUCTION_BYTES
        seq = self.seq
        cap = self.max_instructions
        while seq < cap:
            if not (program.code_base <= pc < end_pc):
                raise ExecutionError(f"PC out of code segment: {pc:#x}")
            inst: Instruction = program.at(pc)
            op = inst.op
            name = op.name
            next_pc = pc + INSTRUCTION_BYTES
            dest = inst.dest
            srcs = inst.srcs
            src_values = tuple(read(s) for s in srcs)
            result = None
            mem_addr: Optional[int] = None
            taken: Optional[bool] = None

            if name in int_ops:
                result = int_ops[name](src_values[0], src_values[1])
            elif name in _IMM_ALIAS:
                result = int_ops[_IMM_ALIAS[name]](src_values[0], inst.imm)
            elif name in ("li", "la"):
                result = inst.imm
            elif name == "mov":
                result = src_values[0]
            elif name == "nop":
                pass
            elif name in ("lw", "lb", "flw"):
                mem_addr = _wrap64(src_values[0] + inst.imm)
                result = memory.load(mem_addr)
                if name == "lb":
                    result = int(result) & 0xFF
                elif name == "flw":
                    result = float(result)
                else:
                    result = _wrap64(int(result))
            elif name in ("sw", "sb", "fsw"):
                mem_addr = _wrap64(src_values[1] + inst.imm)
                value = src_values[0]
                if name == "sb":
                    value = int(value) & 0xFF
                memory.store(mem_addr, value)
            elif name in _BRANCH_TESTS:
                taken = _BRANCH_TESTS[name](src_values[0], src_values[1])
                if taken:
                    next_pc = inst.target
            elif name == "j":
                taken = True
                next_pc = inst.target
            elif name == "halt":
                self.halted = True
                return
            elif name in _FP_BINOPS:
                result = _FP_BINOPS[name](src_values[0], src_values[1])
            elif name in _FP_COMPARES:
                result = _FP_COMPARES[name](src_values[0], src_values[1])
            elif name == "fmov":
                result = src_values[0]
            elif name == "fneg":
                result = -src_values[0]
            elif name == "cvtif":
                result = float(src_values[0])
            elif name == "cvtfi":
                result = _wrap64(int(src_values[0]))
            else:  # pragma: no cover - opcode table is closed
                raise ExecutionError(f"unimplemented opcode {name!r}")

            if dest is not None:
                write(dest, result)
                if dest == ZERO_REG:
                    result = 0
            self.seq = seq + 1
            self.pc = next_pc
            yield DynInst(seq, inst, src_values, result, mem_addr, taken)
            seq += 1
            pc = next_pc


# ---------------------------------------------------------------- comparing --

def typed(value) -> tuple:
    """*value* with its type; floats by ``repr`` so nan and -0.0 compare."""
    if isinstance(value, float):
        return float, repr(value)
    return type(value), value


#: The slots that never hold a float, read in one call, with
#: ``static`` read as the pc it sits at (second).
_plain = operator.attrgetter("seq", "static.pc", *(
    name for name in DynInst.__slots__
    if name not in ("seq", "static", "src_values", "result")))


def record(dyn: DynInst) -> tuple:
    """Every ``DynInst`` slot with its value's type.

    The result and the source values compare by ``repr``, so nan and
    -0.0 compare; ``static`` compares by its pc, the record's second
    field.
    """
    plain = _plain(dyn)
    values = (dyn.result, *dyn.src_values)
    return (plain, tuple(map(type, plain)), tuple(map(type, values)),
            tuple(map(repr, values)))


def state(ex) -> tuple:
    """Registers, memory image and cursor, every value typed."""
    return ([typed(v) for v in ex.int_regs],
            [typed(v) for v in ex.fp_regs],
            sorted((k, typed(v))
                   for k, v in ex.program.memory._mem.items()),
            ex.pc, ex.seq, ex.halted)
