"""Rename unit: map table + free lists + Figure 1 lifecycle.

The cycle-level core drives this unit at decode: it pre-checks that
every allocation an instruction needs (destination register plus one
replica per remote source that requires a copy) can be satisfied, then
performs them.  Physical registers are freed when the next writer of
the same logical register commits, releasing the whole previous mapping
set (the original plus any replicas), exactly as §2.1 describes.

Like the paper's SimpleScalar substrate (and the Alpha it modelled),
physical registers come in separate **integer and floating-point banks**
of ``pregs_per_bank`` registers each per cluster (Table 1's "register
file sizes 128/80/56").  Bank is determined by the logical register:
ids below ``FP_BASE`` are integer.  Physical ids are bank-offset:
integer registers occupy ``[0, pregs_per_bank)`` and fp registers
``[pregs_per_bank, 2*pregs_per_bank)``, so one scoreboard per cluster
covers both banks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..isa.registers import is_fp_reg
from .free_list import FreeList
from .map_table import MapTable

__all__ = ["RenameUnit"]

INT_BANK = 0
FP_BANK = 1


class RenameUnit:
    """Owns the map table and the per-cluster, per-bank free pools.

    At reset every logical register receives one valid mapping; the
    mappings are spread round-robin over the clusters so no single free
    pool starts depleted.
    """

    def __init__(self, n_logical: int, n_clusters: int,
                 pregs_per_bank: int) -> None:
        self.n_logical = n_logical
        self.n_clusters = n_clusters
        self.pregs_per_bank = pregs_per_bank
        self.map_table = MapTable(n_logical, n_clusters)
        self._free: List[List[FreeList]] = [
            [FreeList(pregs_per_bank), FreeList(pregs_per_bank)]
            for _ in range(n_clusters)]
        self._initial: List[Tuple[int, int, int]] = []
        for logical in range(n_logical):
            cluster = logical % n_clusters
            preg = self._alloc(logical, cluster)
            if preg is None:  # pragma: no cover - config validation prevents
                raise ValueError("register file too small for the initial "
                                 "architectural mapping")
            self.map_table.define(logical, cluster, preg)
            self._initial.append((logical, cluster, preg))

    # -- bank plumbing -----------------------------------------------------------

    @staticmethod
    def bank_of(logical: int) -> int:
        """INT_BANK or FP_BANK for a logical register id."""
        return FP_BANK if is_fp_reg(logical) else INT_BANK

    def _alloc(self, logical: int, cluster: int) -> Optional[int]:
        bank = self.bank_of(logical)
        preg = self._free[cluster][bank].alloc()
        if preg is None:
            return None
        return preg + bank * self.pregs_per_bank

    def _release_one(self, cluster: int, preg: int) -> None:
        bank, index = divmod(preg, self.pregs_per_bank)
        self._free[cluster][bank].free(index)

    # -- queries used by steering and decode ------------------------------------

    def initial_mappings(self) -> List[Tuple[int, int, int]]:
        """The reset-time (logical, cluster, preg) triples."""
        return list(self._initial)

    def free_count(self, cluster: int, bank: int) -> int:
        """Free physical registers remaining in one bank of *cluster*."""
        return self._free[cluster][bank].available

    def mapped_clusters(self, logical: int) -> List[int]:
        """Where *logical* currently has valid mappings (shared cache —
        read-only)."""
        return self.map_table.mapped_clusters(logical)

    def mapped_set(self, logical: int):
        """Cached frozenset view of :meth:`mapped_clusters`."""
        return self.map_table.mapped_set(logical)

    def mapping(self, logical: int, cluster: int) -> Optional[int]:
        """Physical register of *logical* in *cluster* (or ``None``)."""
        return self.map_table.get(logical, cluster)

    # -- allocations -------------------------------------------------------------

    def alloc_replica(self, logical: int, cluster: int) -> int:
        """Allocate the destination of a copy and validate its field.

        Callers must have verified :meth:`free_count`; an empty pool
        here is a core sequencing bug, not a simulated stall.
        """
        preg = self._alloc(logical, cluster)
        if preg is None:
            raise RuntimeError(
                f"alloc_replica on empty free list of cluster {cluster}; "
                f"the decode stage must pre-check free_count()")
        self.map_table.add_replica(logical, cluster, preg)
        return preg

    def define_dest(self, logical: int, cluster: int
                    ) -> Tuple[int, List[Tuple[int, int]]]:
        """Allocate a destination register and install its mapping.

        Returns ``(preg, previous_mappings)``; the previous mappings
        must be freed when this instruction commits.
        """
        preg = self._alloc(logical, cluster)
        if preg is None:
            raise RuntimeError(
                f"define_dest on empty free list of cluster {cluster}; "
                f"the decode stage must pre-check free_count()")
        previous = self.map_table.define(logical, cluster, preg)
        return preg, previous

    # -- commit-time release -------------------------------------------------------

    def release(self, mappings: List[Tuple[int, int]]) -> None:
        """Free a previous mapping set at the writer's commit.

        The core's commit stage inlines this, as its dispatch inlines
        :meth:`define_dest`.
        """
        for cluster, preg in mappings:
            self._release_one(cluster, preg)

    # -- audits (tests) -------------------------------------------------------------

    def allocated_counts(self) -> Dict[Tuple[int, int], int]:
        """Allocated register counts per (cluster, bank) for invariants."""
        return {(c, bank): self.pregs_per_bank - self._free[c][bank].available
                for c in range(self.n_clusters) for bank in (0, 1)}
