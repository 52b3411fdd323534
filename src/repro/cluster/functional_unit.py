"""Functional-unit pools and per-cycle issue resources of one cluster.

Table 1 describes each configuration's pools: e.g. the 4-cluster machine
has, per cluster, "2 int (1 include mul/div), 1 fp (includes fp mul/div)"
and an issue width of "2 int / 1 fp".  This module enforces, per cycle:

* the integer and fp **issue widths**,
* the number of **units** of each side,
* the subset of units capable of multiply/divide,
* non-pipelined divides, which occupy their unit for the full latency.

Copy and verification-copy instructions consume issue width (§2 Table 1:
"Communications consume issue width and instruction queue entries") but
no functional unit.
"""

from __future__ import annotations

from typing import Dict, List

from ..isa.opcodes import OpClass

__all__ = ["FUPool", "DEFAULT_LATENCIES"]

#: Execution latencies per operation class (SimpleScalar-style defaults).
#: LOAD's entry is the address-generation cycle; cache latency is added
#: by the core.  STORE only generates its address in the back end.
DEFAULT_LATENCIES: Dict[OpClass, int] = {
    OpClass.IALU: 1,
    OpClass.IMUL: 3,
    OpClass.IDIV: 20,
    OpClass.FALU: 2,
    OpClass.FMUL: 4,
    OpClass.FDIV: 12,
    OpClass.LOAD: 1,
    OpClass.STORE: 1,
}

_INT_SIDE = frozenset({OpClass.IALU, OpClass.IMUL, OpClass.IDIV,
                       OpClass.LOAD, OpClass.STORE})


class FUPool:
    """Issue-resource tracker for one cluster.

    Call :meth:`begin_cycle` once per cycle, then :meth:`try_issue_desc`
    for each candidate; it reserves the resources on success.

    The opclass → (side, muldiv, div, latency) classification is folded
    into a per-instance descriptor table at construction.  The timing
    core looks each static instruction's descriptor up once
    (:meth:`descriptor`) and issues with :meth:`try_issue_desc`, so no
    opclass is hashed per issue attempt.  The count
    of units occupied by in-flight non-pipelined divides is computed once
    per cycle (divides issue rarely; the busy count only changes at
    ``begin_cycle`` or when a divide claims a unit mid-cycle).
    """

    __slots__ = ("int_units", "int_muldiv", "fp_units", "fp_muldiv",
                 "int_width", "fp_width", "latencies", "_desc",
                 "_idiv_busy", "_fdiv_busy", "_cycle",
                 "_int_issued", "_fp_issued",
                 "_int_units_used", "_fp_units_used",
                 "_imuldiv_used", "_fmuldiv_used",
                 "_idiv_busy_now", "_fdiv_busy_now",
                 "_idiv_max_until", "_fdiv_max_until")

    def __init__(self, int_units: int, int_muldiv: int,
                 fp_units: int, fp_muldiv: int,
                 int_width: int, fp_width: int,
                 latencies: Dict[OpClass, int] = None) -> None:
        if int_muldiv > int_units or fp_muldiv > fp_units:
            raise ValueError("mul/div-capable units cannot exceed the pool")
        self.int_units = int_units
        self.int_muldiv = int_muldiv
        self.fp_units = fp_units
        self.fp_muldiv = fp_muldiv
        self.int_width = int_width
        self.fp_width = fp_width
        self.latencies = dict(DEFAULT_LATENCIES)
        if latencies:
            self.latencies.update(latencies)
        #: opclass -> (is_int_side, is_muldiv, is_div, latency)
        self._desc: Dict[OpClass, tuple] = {
            oc: (oc in _INT_SIDE,
                 oc in (OpClass.IMUL, OpClass.IDIV,
                        OpClass.FMUL, OpClass.FDIV),
                 oc in (OpClass.IDIV, OpClass.FDIV),
                 self.latencies[oc])
            for oc in self.latencies
        }
        # Non-pipelined divides occupy one mul/div-capable unit each.
        self._idiv_busy: List[int] = [0] * int_muldiv
        self._fdiv_busy: List[int] = [0] * fp_muldiv
        self._cycle = -1
        self._int_issued = 0
        self._fp_issued = 0
        self._int_units_used = 0
        self._fp_units_used = 0
        self._imuldiv_used = 0
        self._fmuldiv_used = 0
        self._idiv_busy_now = 0
        self._fdiv_busy_now = 0
        # Latest cycle through which any claimed divide unit stays busy;
        # while `cycle >= max_until` every unit is free and begin_cycle
        # skips the per-unit scan (divides are rare, so this is the
        # steady state).
        self._idiv_max_until = 0
        self._fdiv_max_until = 0

    # -- per-cycle bookkeeping ---------------------------------------------------

    def begin_cycle(self, cycle: int) -> None:
        """Reset the per-cycle counters."""
        self._cycle = cycle
        self._int_issued = 0
        self._fp_issued = 0
        self._int_units_used = 0
        self._fp_units_used = 0
        self._imuldiv_used = 0
        self._fmuldiv_used = 0
        if cycle < self._idiv_max_until:
            self._idiv_busy_now = sum(
                1 for until in self._idiv_busy if until > cycle)
        else:
            self._idiv_busy_now = 0
        if cycle < self._fdiv_max_until:
            self._fdiv_busy_now = sum(
                1 for until in self._fdiv_busy if until > cycle)
        else:
            self._fdiv_busy_now = 0

    # -- queries -----------------------------------------------------------------

    def int_width_left(self) -> int:
        """Unused integer issue slots this cycle."""
        return self.int_width - self._int_issued

    def fp_width_left(self) -> int:
        """Unused fp issue slots this cycle."""
        return self.fp_width - self._fp_issued

    # -- issue -------------------------------------------------------------------

    def descriptor(self, opclass: OpClass) -> tuple:
        """``(is_int_side, is_muldiv, is_div, latency)`` of *opclass*:
        what :meth:`try_issue_desc` takes, its last field the execution
        latency (loads exclude cache time).  Pools built with the same
        latencies have equal descriptors."""
        return self._desc[opclass]

    def try_issue_desc(self, desc: tuple) -> bool:
        """Reserve issue width and a unit for one instruction of the
        opclass whose :meth:`descriptor` is *desc*; True on success."""
        is_int, is_muldiv, is_div, latency = desc
        if is_int:
            if self._int_issued >= self.int_width:
                return False
            busy = self._idiv_busy_now
            if self._int_units_used >= self.int_units - busy:
                return False
            if is_muldiv:
                if self._imuldiv_used >= self.int_muldiv - busy:
                    return False
                self._imuldiv_used += 1
                if is_div:
                    self._claim_div(self._idiv_busy, latency)
                    self._idiv_busy_now += 1
            self._int_issued += 1
            self._int_units_used += 1
            return True
        # fp side
        if self._fp_issued >= self.fp_width:
            return False
        busy = self._fdiv_busy_now
        if self._fp_units_used >= self.fp_units - busy:
            return False
        if is_muldiv:
            if self._fmuldiv_used >= self.fp_muldiv - busy:
                return False
            self._fmuldiv_used += 1
            if is_div:
                self._claim_div(self._fdiv_busy, latency)
                self._fdiv_busy_now += 1
        self._fp_issued += 1
        self._fp_units_used += 1
        return True

    def try_issue_copy(self, fp_side: bool) -> bool:
        """Reserve issue width (only) for a copy/verification-copy."""
        if fp_side:
            if self._fp_issued >= self.fp_width:
                return False
            self._fp_issued += 1
            return True
        if self._int_issued >= self.int_width:
            return False
        self._int_issued += 1
        return True

    def _claim_div(self, busy: List[int], latency: int) -> None:
        cycle = self._cycle
        for i, until in enumerate(busy):
            if until <= cycle:
                freed = cycle + latency
                busy[i] = freed
                if busy is self._idiv_busy:
                    if freed > self._idiv_max_until:
                        self._idiv_max_until = freed
                elif freed > self._fdiv_max_until:
                    self._fdiv_max_until = freed
                return
        raise RuntimeError("divide issued with no free unit "
                           "(try_issue_desc accounting bug)")
