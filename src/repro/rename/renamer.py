"""Rename state: the N-field map table and the per-cluster free pools.

§2.1 / Figure 1: one map-table entry per logical register with one
field per cluster; a valid field names the physical register holding
(or about to hold) that logical register's value in that cluster.
"Each cluster has a free pool of physical registers from where they
are allocated when needed."

The rules live in the cycle loop (:mod:`repro.core.processor`): decode
checks that every allocation an instruction needs can be satisfied;
``_dispatch`` renames the destination (a free register of its bank
becomes the only valid field, and the previous mapping set, original
plus replicas, rides on the uop) and allocates copy replicas through
:meth:`RenameUnit.alloc_replica`; ``_commit`` returns a writer's
previous mapping set to the pools.  This module holds the state they
read and write.

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

from collections import deque
from typing import FrozenSet, List, Optional, Tuple

from ..isa.registers import is_fp_reg

__all__ = ["FP_BANK", "INT_BANK", "RenameUnit"]

INT_BANK = 0
FP_BANK = 1


class RenameUnit:
    """The map table and the free pools of one processor.

    Attributes:
        rows: per logical register, one field per cluster: the physical
            register of its value there, or ``None``.
        mapped_lists, mapped_sets: per logical register, the clusters
            with a valid field, as a list and as a frozenset (steering
            reads both for every source of every instruction); ``None``
            until :meth:`mapped_clusters` / :meth:`mapped_set` refill
            them.  Shared entries: treat them as read-only.
        single_lists, single_sets: the cache entries of a register
            mapped in one cluster only, one per cluster, so a
            destination rename leaves no cache miss.
        free: per cluster, per bank, the FIFO pool of free bank-local
            register indices.
        allocated: per cluster, per bank, whether each bank-local index
            is checked out.
    """

    def __init__(self, n_logical: int, n_clusters: int,
                 pregs_per_bank: int) -> None:
        self.n_clusters = n_clusters
        self.pregs_per_bank = pregs_per_bank
        self.rows: List[List[Optional[int]]] = [
            [None] * n_clusters for _ in range(n_logical)]
        self.mapped_lists: List[Optional[List[int]]] = [None] * n_logical
        self.mapped_sets: List[Optional[FrozenSet[int]]] = [None] * n_logical
        self.single_lists = [[c] for c in range(n_clusters)]
        self.single_sets = [frozenset((c,)) for c in range(n_clusters)]
        self.free = [[deque(range(pregs_per_bank)) for _ in range(2)]
                     for _ in range(n_clusters)]
        self.allocated = [[[False] * pregs_per_bank for _ in range(2)]
                          for _ in range(n_clusters)]

    def reset_mapping(self) -> List[Tuple[int, int]]:
        """Give every logical register one valid mapping.

        The mappings are spread round-robin over the clusters so no
        single free pool starts depleted.  Returns the ``(cluster,
        preg)`` pairs, whose values are architectural at reset.
        """
        pairs = []
        for logical in range(len(self.rows)):
            cluster = logical % self.n_clusters
            bank = FP_BANK if is_fp_reg(logical) else INT_BANK
            pairs.append((cluster,
                          self.alloc_replica(logical, cluster, bank)))
        return pairs

    def alloc_replica(self, logical: int, cluster: int, bank: int) -> int:
        """Allocate a register of *bank* in *cluster* and validate
        *logical*'s field there (a copy's destination); decode has
        checked that the pool is not empty."""
        row = self.rows[logical]
        if row[cluster] is not None:
            raise ValueError(
                f"logical r{logical} already mapped in cluster {cluster}")
        index = self.free[cluster][bank].popleft()
        self.allocated[cluster][bank][index] = True
        preg = row[cluster] = index + bank * self.pregs_per_bank
        self.mapped_lists[logical] = None
        self.mapped_sets[logical] = None
        return preg

    def mapped_clusters(self, logical: int) -> List[int]:
        """Clusters where *logical* has a valid field (cached)."""
        cached = self.mapped_lists[logical]
        if cached is None:
            cached = self.mapped_lists[logical] = [
                c for c, preg in enumerate(self.rows[logical])
                if preg is not None]
        return cached

    def mapped_set(self, logical: int) -> FrozenSet[int]:
        """:meth:`mapped_clusters` as a frozenset (cached)."""
        cached = self.mapped_sets[logical]
        if cached is None:
            cached = self.mapped_sets[logical] = frozenset(
                self.mapped_clusters(logical))
        return cached
