"""Static and dynamic instruction records.

:class:`Instruction` is the *static* form produced by the program builder:
one entry per line of assembly, with register ids already resolved.

:class:`DynInst` is one element of the *dynamic* trace produced by the
functional executor — the unit the timing simulator consumes.  It carries
everything the timing model needs and nothing else: operand **values**
(for the value predictor), the memory address (for the cache model) and
the branch outcome (for the branch predictor).
"""

from __future__ import annotations

from typing import Optional, Tuple

from .opcodes import OpClass, OpInfo
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
    """

    __slots__ = ("op", "dest", "srcs", "imm", "target", "pc", "srcs_fp",
                 "dest_fp")

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
        pc: instruction address.
        op: opcode metadata (shared :class:`OpInfo`).
        dest: destination register id or ``None``.
        srcs: source register ids.
        src_values: architecturally correct source operand values,
            aligned with ``srcs``.
        result: value written to ``dest`` (``None`` when no dest).
        mem_addr: byte address for loads/stores, else ``None``.
        taken: branch outcome (``None`` for non-branches).
        target: next PC when taken (``None`` for non-branches).

    The opcode views (``is_branch``, ``is_load``, ``opclass``, ...) are
    materialized once at construction: the timing core reads them every
    cycle an instruction sits in the window, so they are plain slot
    attributes rather than properties chasing ``self.op`` each access.
    ``static`` is the :class:`Instruction` this record is an execution
    of; the timing core keys its per-static-instruction decode facts on
    it.  ``srcs_fp`` is shared from it.
    """

    __slots__ = ("seq", "pc", "op", "dest", "srcs", "src_values",
                 "result", "mem_addr", "taken", "target",
                 "is_branch", "is_cond_branch", "is_load", "is_store",
                 "is_int", "opclass", "srcs_fp", "static")

    def __init__(self, seq: int, pc: int, op: OpInfo,
                 dest: Optional[int], srcs: Tuple[int, ...],
                 src_values: tuple, result,
                 mem_addr: Optional[int],
                 taken: Optional[bool], target: Optional[int],
                 static: Instruction) -> None:
        self.seq = seq
        self.pc = pc
        self.op = op
        self.dest = dest
        self.srcs = srcs
        self.src_values = src_values
        self.result = result
        self.mem_addr = mem_addr
        self.taken = taken
        self.target = target
        # -- precomputed opcode views (see class docstring) --------------
        self.is_branch = op.is_branch
        self.is_cond_branch = op.is_cond_branch
        self.is_load = op.is_load
        self.is_store = op.is_store
        self.is_int = op.is_int
        self.opclass = op.opclass
        self.srcs_fp = static.srcs_fp
        self.static = static

    def src_is_fp(self, index: int) -> bool:
        """True when source operand *index* lives in the fp register bank.

        The paper's stride predictor does not predict fp values
        (§3.3: "Communications are not zero because of fp values, that
        are not considered by our predictor").
        """
        return self.srcs_fp[index]

    def __repr__(self) -> str:
        return (f"<DynInst #{self.seq} pc={self.pc:#x} {self.op.name} "
                f"dest={None if self.dest is None else reg_name(self.dest)}>")
