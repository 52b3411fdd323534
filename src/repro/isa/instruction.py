"""Static and dynamic instruction records.

:class:`Instruction` is the *static* form produced by the program builder:
one entry per line of assembly, with register ids already resolved.

:class:`DynInst` is one element of the *dynamic* trace produced by the
functional executor — the unit the timing simulator consumes.  It holds
only what varies between executions of one instruction: operand
**values** (for the value predictor), the memory address (for the cache
model) and the branch outcome (for the branch predictor).  The pc,
registers, target and opcode flags stay on its :class:`Instruction`.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Optional, Tuple

from .opcodes import OpInfo
from .registers import is_fp_reg, reg_name


class Instruction:
    """A static µRISC instruction.

    Attributes:
        op: opcode metadata.
        dest: destination register id, or ``None``.
        srcs: tuple of source register ids (0, 1 or 2 entries).
        imm: immediate value (already includes resolved data-label
            addresses for ``la``), or ``None``.
        target: resolved branch/jump target PC, or ``None``.
        pc: code address of this instruction (assigned by the builder).
        srcs_fp: per source, whether it lives in the fp register bank.
        dest_fp: whether the destination is an fp register.
        is_branch / is_cond_branch / is_load / is_store: the opcode's
            flags, copied from *op* so fetch and dispatch read them
            with one attribute load.
    """

    __slots__ = ("op", "dest", "srcs", "imm", "target", "pc", "srcs_fp",
                 "dest_fp", "is_branch", "is_cond_branch", "is_load",
                 "is_store")

    def __init__(self, op: OpInfo, dest: Optional[int],
                 srcs: Tuple[int, ...], imm: Optional[int],
                 target: Optional[int], pc: int) -> None:
        self.op = op
        self.dest = dest
        self.srcs = srcs
        self.imm = imm
        self.target = target
        self.pc = pc
        self.srcs_fp = tuple(is_fp_reg(s) for s in srcs)
        self.dest_fp = dest is not None and is_fp_reg(dest)
        self.is_branch = op.is_branch
        self.is_cond_branch = op.is_cond_branch
        self.is_load = op.is_load
        self.is_store = op.is_store

    def __repr__(self) -> str:
        parts = [self.op.name]
        if self.dest is not None:
            parts.append(reg_name(self.dest))
        parts.extend(reg_name(s) for s in self.srcs)
        if self.imm is not None:
            parts.append(str(self.imm))
        if self.target is not None:
            parts.append(f"@{self.target:#x}")
        return f"<{' '.join(parts)} pc={self.pc:#x}>"


class DynInst:
    """One committed dynamic instruction from the functional executor.

    The timing simulator replays a stream of these.  Operand values are
    the *architecturally correct* ones; the value predictor compares its
    decode-time prediction against them to classify each prediction.

    Attributes:
        seq: position in the dynamic stream (0-based).
        static: the :class:`Instruction` this record is an execution
            of; the timing core keys its per-static-instruction decode
            facts on it.
        src_values: architecturally correct source operand values,
            aligned with ``static.srcs``.
        result: value written to the destination (``None`` when the
            instruction has none).
        mem_addr: byte address for loads/stores, else ``None``.
        taken: branch outcome (``None`` for non-branches).

    Every static fact — ``pc``, ``op``, ``dest``, ``srcs``, ``target``
    (next pc when taken), ``srcs_fp`` and the opcode views
    ``is_branch``, ``is_cond_branch``, ``is_load``, ``is_store``,
    ``is_int`` and ``opclass`` — is a read-only property over
    ``static``.  The timing core's fetch, decode and dispatch read
    ``static`` once per instruction instead.
    """

    __slots__ = ("seq", "static", "src_values", "result", "mem_addr",
                 "taken")

    def __init__(self, seq: int, static: Instruction, src_values: tuple,
                 result, mem_addr: Optional[int],
                 taken: Optional[bool]) -> None:
        self.seq = seq
        self.static = static
        self.src_values = src_values
        self.result = result
        self.mem_addr = mem_addr
        self.taken = taken

    pc = property(attrgetter("static.pc"))
    op = property(attrgetter("static.op"))
    dest = property(attrgetter("static.dest"))
    srcs = property(attrgetter("static.srcs"))
    target = property(attrgetter("static.target"))
    srcs_fp = property(attrgetter("static.srcs_fp"))
    is_branch = property(attrgetter("static.is_branch"))
    is_cond_branch = property(attrgetter("static.is_cond_branch"))
    is_load = property(attrgetter("static.is_load"))
    is_store = property(attrgetter("static.is_store"))
    is_int = property(attrgetter("static.op.is_int"))
    opclass = property(attrgetter("static.op.opclass"))

    def __repr__(self) -> str:
        static = self.static
        dest = static.dest
        return (f"<DynInst #{self.seq} pc={static.pc:#x} {static.op.name} "
                f"dest={None if dest is None else reg_name(dest)}>")
