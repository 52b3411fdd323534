"""The N-field register map table of §2.1 / Figure 1.

One entry per logical register with one field per cluster; a valid field
points at the physical register holding (or about to hold) that logical
register's value in that cluster.  Writing a new destination validates
exactly the producing cluster's field and invalidates the rest; replicas
created by copy instructions validate additional fields; the full
previous mapping set (original + replicas) is freed when the *next*
writer of the logical register commits.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Tuple

__all__ = ["MapTable"]


class MapTable:
    """Rename map with ``n_clusters`` fields per logical register."""

    def __init__(self, n_logical: int, n_clusters: int) -> None:
        if n_logical <= 0 or n_clusters <= 0:
            raise ValueError("map table dimensions must be positive")
        self.n_logical = n_logical
        self.n_clusters = n_clusters
        self._map: List[List[Optional[int]]] = [
            [None] * n_clusters for _ in range(n_logical)]
        # Steering reads the mapped-cluster view of every source operand
        # of every decoded instruction; the views change only on
        # define/add_replica, so they are cached per logical register.
        self._mapped_cache: List[Optional[List[int]]] = [None] * n_logical
        self._mapped_sets: List[Optional[FrozenSet[int]]] = (
            [None] * n_logical)
        # A freshly defined register is mapped in one cluster only; its
        # views are these shared entries, so no define leaves a miss.
        self._single_lists = [[c] for c in range(n_clusters)]
        self._single_sets = [frozenset((c,)) for c in range(n_clusters)]

    # -- queries --------------------------------------------------------------

    def get(self, logical: int, cluster: int) -> Optional[int]:
        """Physical register of *logical* in *cluster*, or ``None``."""
        return self._map[logical][cluster]

    def is_mapped(self, logical: int, cluster: int) -> bool:
        """True when the (logical, cluster) field is valid."""
        return self._map[logical][cluster] is not None

    def mapped_clusters(self, logical: int) -> List[int]:
        """Clusters where *logical* currently has a valid mapping.

        The returned list is a shared cache entry — treat it as
        read-only.
        """
        cached = self._mapped_cache[logical]
        if cached is None:
            row = self._map[logical]
            cached = [c for c in range(self.n_clusters)
                      if row[c] is not None]
            self._mapped_cache[logical] = cached
        return cached

    def mapped_set(self, logical: int) -> FrozenSet[int]:
        """:meth:`mapped_clusters` as a cached frozenset (steering views)."""
        cached = self._mapped_sets[logical]
        if cached is None:
            cached = frozenset(self.mapped_clusters(logical))
            self._mapped_sets[logical] = cached
        return cached

    def mappings(self, logical: int) -> List[Tuple[int, int]]:
        """All valid (cluster, preg) pairs of *logical*."""
        row = self._map[logical]
        return [(c, row[c]) for c in range(self.n_clusters)
                if row[c] is not None]

    # -- updates --------------------------------------------------------------

    def define(self, logical: int, cluster: int,
               preg: int) -> List[Tuple[int, int]]:
        """Install a new destination mapping.

        Validates field *cluster* with *preg*, invalidates every other
        field, and returns the complete previous mapping set — the
        physical registers the renamer must free when this writer
        commits (Figure 1(c) semantics).
        """
        previous = self.mappings(logical)
        row = self._map[logical]
        for c in range(self.n_clusters):
            row[c] = None
        row[cluster] = preg
        self._mapped_cache[logical] = self._single_lists[cluster]
        self._mapped_sets[logical] = self._single_sets[cluster]
        return previous

    def add_replica(self, logical: int, cluster: int, preg: int) -> None:
        """Validate an additional field for a copy-created replica."""
        if self._map[logical][cluster] is not None:
            raise ValueError(
                f"logical r{logical} already mapped in cluster {cluster}")
        self._map[logical][cluster] = preg
        self._mapped_cache[logical] = None
        self._mapped_sets[logical] = None

    def live_pregs(self, cluster: int) -> List[int]:
        """Physical registers of *cluster* referenced by valid fields."""
        return [row[cluster] for row in self._map
                if row[cluster] is not None]
