"""Program representation and the label-based program builder.

Workloads are authored through :class:`ProgramBuilder`::

    b = ProgramBuilder()
    src = b.data("src", range(64))
    b.emit("la", "r1", "src")
    b.emit("li", "r2", 0)
    b.label("loop")
    b.emit("lw", "r3", "r1", 0)
    b.emit("add", "r4", "r4", "r3")
    b.emit("addi", "r1", "r1", 4)
    b.emit("addi", "r2", "r2", 1)
    b.emit("blt", "r2", "r5", "loop")
    b.emit("halt")
    program = b.build()

``build()`` resolves code labels to PCs and data labels to addresses and
returns an immutable :class:`Program` ready for the functional executor.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from .instruction import Instruction
from .memory_image import MemoryImage
from .opcodes import OpInfo, opinfo
from .registers import is_fp_reg, is_int_reg, reg_id

__all__ = ["Program", "ProgramBuilder", "ProgramError"]

#: Size of one encoded instruction, used for PC arithmetic and the I-cache.
INSTRUCTION_BYTES = 4

#: Base address of the code segment.
CODE_BASE = 0x1000


class ProgramError(ValueError):
    """Raised for malformed programs (bad operands, unresolved labels...)."""


# Register-bank expectations per opcode, for the register slots of the
# signature in order (dest first when present).  'i' = integer bank,
# 'f' = fp bank.  Opcodes absent from this table use the default derived
# from their operation class (fp classes -> all 'f', else all 'i').
_BANK_OVERRIDES: Dict[str, str] = {
    "flw": "fi",    # dest fp, base address integer
    "fsw": "fi",    # stored value fp, base address integer
    "feq": "iff",   # integer 0/1 result from fp compare
    "flt": "iff",
    "fle": "iff",
    "cvtif": "fi",  # int -> fp
    "cvtfi": "if",  # fp -> int
}


def _expected_banks(op: OpInfo) -> str:
    override = _BANK_OVERRIDES.get(op.name)
    if override is not None:
        return override
    n_regs = sum(1 for kind in op.signature if kind in ("R", "S"))
    from .opcodes import FP_CLASSES
    return ("f" if op.opclass in FP_CLASSES else "i") * n_regs


class Program:
    """An immutable assembled program.

    Attributes:
        instructions: static instructions in code order.
        memory: initialized functional data memory.
        labels: code label -> PC.
        data_labels: data label -> address.
        code_base: PC of the first instruction.
    """

    def __init__(self, instructions: List[Instruction], memory: MemoryImage,
                 labels: Dict[str, int], data_labels: Dict[str, int]) -> None:
        self.instructions = instructions
        self.memory = memory
        self.labels = dict(labels)
        self.data_labels = dict(data_labels)
        self.code_base = CODE_BASE
        self._by_pc = {inst.pc: inst for inst in instructions}

    def at(self, pc: int) -> Instruction:
        """Instruction at address *pc* (raises ``KeyError`` if none)."""
        return self._by_pc[pc]

    def __len__(self) -> int:
        return len(self.instructions)

    @property
    def static_size(self) -> int:
        """Number of static instructions."""
        return len(self.instructions)


class ProgramBuilder:
    """Incrementally builds a :class:`Program` (see module docstring)."""

    def __init__(self) -> None:
        self._lines: List[Tuple[str, tuple]] = []
        self._labels: Dict[str, int] = {}        # label -> instruction index
        self._memory = MemoryImage()
        self._data_labels: Dict[str, int] = {}

    # -- data segment ---------------------------------------------------------

    def data(self, name: str, values: Iterable, elem_size: int = 4) -> int:
        """Allocate an initialized array; returns (and records) its address."""
        if name in self._data_labels:
            raise ProgramError(f"duplicate data label {name!r}")
        addr = self._memory.alloc_words(values, elem_size=elem_size)
        self._data_labels[name] = addr
        return addr

    def zeros(self, name: str, count: int, elem_size: int = 4) -> int:
        """Allocate a zero-initialized array of *count* elements."""
        return self.data(name, [0] * count, elem_size=elem_size)

    # -- code segment -----------------------------------------------------------

    def label(self, name: str) -> None:
        """Attach a code label to the next emitted instruction."""
        if name in self._labels:
            raise ProgramError(f"duplicate code label {name!r}")
        self._labels[name] = len(self._lines)

    def emit(self, op_name: str, *operands) -> None:
        """Append one instruction; operands follow the opcode signature."""
        op = opinfo(op_name)
        if len(operands) != len(op.signature):
            raise ProgramError(
                f"{op_name}: expected {len(op.signature)} operands "
                f"{op.signature}, got {len(operands)}")
        self._lines.append((op_name, operands))

    def here(self) -> int:
        """Index of the next instruction (for computed-label tricks)."""
        return len(self._lines)

    # -- assembly -----------------------------------------------------------------

    def build(self) -> Program:
        """Resolve labels and produce the immutable :class:`Program`."""
        instructions: List[Instruction] = []
        label_pcs = {name: CODE_BASE + idx * INSTRUCTION_BYTES
                     for name, idx in self._labels.items()}
        for index, (op_name, operands) in enumerate(self._lines):
            op = opinfo(op_name)
            pc = CODE_BASE + index * INSTRUCTION_BYTES
            instructions.append(
                self._assemble(op, operands, pc, label_pcs))
        return Program(instructions, self._memory, label_pcs,
                       self._data_labels)

    def _assemble(self, op: OpInfo, operands: tuple, pc: int,
                  label_pcs: Dict[str, int]) -> Instruction:
        dest: Optional[int] = None
        srcs: List[int] = []
        imm: Optional[int] = None
        target: Optional[int] = None
        banks = _expected_banks(op)
        reg_slot = 0
        for kind, operand in zip(op.signature, operands):
            if kind in ("R", "S"):
                rid = operand if isinstance(operand, int) else reg_id(operand)
                want_fp = banks[reg_slot] == "f"
                if want_fp and not is_fp_reg(rid):
                    raise ProgramError(
                        f"{op.name} @ {pc:#x}: operand {operand!r} must be "
                        f"an fp register")
                if not want_fp and not is_int_reg(rid):
                    raise ProgramError(
                        f"{op.name} @ {pc:#x}: operand {operand!r} must be "
                        f"an integer register")
                reg_slot += 1
                if kind == "R":
                    dest = rid
                else:
                    srcs.append(rid)
            elif kind == "I":
                if not isinstance(operand, int):
                    raise ProgramError(
                        f"{op.name} @ {pc:#x}: immediate must be an int, "
                        f"got {operand!r}")
                imm = operand
            elif kind == "L":
                if operand not in self._labels:
                    raise ProgramError(
                        f"{op.name} @ {pc:#x}: unknown code label "
                        f"{operand!r}")
                target = label_pcs[operand]
            elif kind == "A":
                if isinstance(operand, int):
                    imm = operand
                elif operand in self._data_labels:
                    imm = self._data_labels[operand]
                else:
                    raise ProgramError(
                        f"{op.name} @ {pc:#x}: unknown data label "
                        f"{operand!r}")
            else:  # pragma: no cover - signature kinds are closed
                raise ProgramError(f"bad signature kind {kind!r}")
        return Instruction(op, dest, tuple(srcs), imm, target, pc)
