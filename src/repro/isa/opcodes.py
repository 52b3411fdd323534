"""Opcode metadata for the µRISC ISA.

Each opcode carries the static information every other layer needs:

* the **operand signature** used by the program builder and the assembler,
* the **operation class** (:class:`OpClass`) that the timing model maps to
  a functional-unit pool and an execution latency,
* behavioural flags (branch / load / store / fp).

Execution *semantics* live in :mod:`repro.isa.executor`; this module is
pure metadata so that the timing model never imports interpreter code.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Tuple

__all__ = ["OpClass", "OpInfo", "OPCODES", "opinfo"]


class OpClass(enum.Enum):
    """Functional classes an instruction can belong to.

    The class determines which functional-unit pool executes the
    instruction and (together with the processor configuration) its
    execution latency.
    """

    IALU = "ialu"      # integer add/logic/shift/compare and branches
    IMUL = "imul"      # integer multiply (pipelined)
    IDIV = "idiv"      # integer divide/remainder (non-pipelined)
    FALU = "falu"      # fp add/sub/compare/convert/move
    FMUL = "fmul"      # fp multiply (pipelined)
    FDIV = "fdiv"      # fp divide (non-pipelined)
    LOAD = "load"      # memory read (address generation + cache access)
    STORE = "store"    # memory write (address generation; cache at commit)


#: Classes that execute on the integer side of a cluster (consume integer
#: issue slots and integer functional units).
INT_CLASSES = frozenset(
    {OpClass.IALU, OpClass.IMUL, OpClass.IDIV, OpClass.LOAD, OpClass.STORE}
)

#: Classes that execute on the floating-point side of a cluster.
FP_CLASSES = frozenset({OpClass.FALU, OpClass.FMUL, OpClass.FDIV})


@dataclass(frozen=True)
class OpInfo:
    """Static description of one opcode.

    Attributes:
        name: mnemonic, lower case.
        opclass: functional class, drives FU selection and latency.
        signature: operand kinds in assembly order.  Kinds:
            ``"R"`` destination register, ``"S"`` source register,
            ``"I"`` immediate, ``"L"`` code label (branch/jump target),
            ``"A"`` data label (its address becomes an immediate).
        is_branch: transfers control (conditional or not).
        is_cond_branch: conditional control transfer (direction predicted).
        is_load / is_store: accesses data memory.
        mem_size: access width in bytes for memory ops, else 0.
        is_int: executes on the integer side (derived from *opclass*
            once, so per-instruction readers pay no enum hashing).
    """

    name: str
    opclass: OpClass
    signature: Tuple[str, ...]
    is_branch: bool = False
    is_cond_branch: bool = False
    is_load: bool = False
    is_store: bool = False
    mem_size: int = 0
    is_int: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "is_int", self.opclass in INT_CLASSES)

    @property
    def has_dest(self) -> bool:
        """True when the opcode writes a destination register."""
        return "R" in self.signature

    @property
    def num_srcs(self) -> int:
        """Number of register source operands."""
        return sum(1 for kind in self.signature if kind == "S")


def _op(name: str, opclass: OpClass, signature: str, **flags) -> OpInfo:
    return OpInfo(name=name, opclass=opclass, signature=tuple(signature), **flags)


#: The full opcode registry, keyed by mnemonic.
OPCODES: Dict[str, OpInfo] = {}


def _register(info: OpInfo) -> None:
    OPCODES[info.name] = info


# --- integer ALU -----------------------------------------------------------
for _name in ("add", "sub", "and", "or", "xor", "sll", "srl", "sra",
              "slt", "sltu", "min", "max"):
    _register(_op(_name, OpClass.IALU, "RSS"))
for _name in ("addi", "andi", "ori", "xori", "slli", "srli", "srai", "slti"):
    _register(_op(_name, OpClass.IALU, "RSI"))
_register(_op("li", OpClass.IALU, "RI"))
_register(_op("la", OpClass.IALU, "RA"))
_register(_op("mov", OpClass.IALU, "RS"))
_register(_op("nop", OpClass.IALU, ""))

# --- integer multiply / divide --------------------------------------------
_register(_op("mul", OpClass.IMUL, "RSS"))
_register(_op("div", OpClass.IDIV, "RSS"))
_register(_op("rem", OpClass.IDIV, "RSS"))

# --- control flow ----------------------------------------------------------
for _name in ("beq", "bne", "blt", "bge"):
    _register(_op(_name, OpClass.IALU, "SSL",
                  is_branch=True, is_cond_branch=True))
_register(_op("j", OpClass.IALU, "L", is_branch=True))
_register(_op("halt", OpClass.IALU, ""))

# --- memory ----------------------------------------------------------------
_register(_op("lw", OpClass.LOAD, "RSI", is_load=True, mem_size=4))
_register(_op("lb", OpClass.LOAD, "RSI", is_load=True, mem_size=1))
_register(_op("sw", OpClass.STORE, "SSI", is_store=True, mem_size=4))
_register(_op("sb", OpClass.STORE, "SSI", is_store=True, mem_size=1))
_register(_op("flw", OpClass.LOAD, "RSI", is_load=True, mem_size=8))
_register(_op("fsw", OpClass.STORE, "SSI", is_store=True, mem_size=8))

# --- floating point ---------------------------------------------------------
for _name in ("fadd", "fsub"):
    _register(_op(_name, OpClass.FALU, "RSS"))
_register(_op("fmul", OpClass.FMUL, "RSS"))
_register(_op("fdiv", OpClass.FDIV, "RSS"))
_register(_op("fmov", OpClass.FALU, "RS"))
_register(_op("fneg", OpClass.FALU, "RS"))
# fp compares produce an integer 0/1 so that branching stays integer-side.
for _name in ("feq", "flt", "fle"):
    _register(_op(_name, OpClass.FALU, "RSS"))
# conversions
_register(_op("cvtif", OpClass.FALU, "RS"))   # int reg -> fp reg
_register(_op("cvtfi", OpClass.FALU, "RS"))   # fp reg -> int reg


def opinfo(name: str) -> OpInfo:
    """Look up opcode metadata; raises ``KeyError`` with a helpful message."""
    try:
        return OPCODES[name]
    except KeyError:
        raise KeyError(f"unknown opcode {name!r}") from None
