"""Workload-balance metrics: DCOUNT (drives steering) and NREADY (reported).

§2.3.2 defines both.  **DCOUNT**: a signed counter per cluster; on every
dispatch the chosen cluster's counter rises by N-1 and every other falls
by 1, so each counter equals N times (instructions dispatched there -
average per cluster) and their sum stays zero.  Steering uses the
maximum absolute counter as the imbalance.  **NREADY**: the number of
ready instructions that could not issue because their cluster's issue
capacity was exhausted but idle capacity existed elsewhere; the paper
*measures* imbalance with NREADY while *steering* with DCOUNT, and so do
we.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

__all__ = ["DCountTracker", "NReadyMeter"]


class DCountTracker:
    """The paper's DCOUNT workload counters.

    Stored in offset form: ``_raw[c]`` is the true counter plus the
    shared offset ``dispatches``, the number of dispatches so far.
    That turns the "every other counter falls by 1" part of a dispatch
    into a single offset bump — O(1) instead of O(N) on the dispatch
    hot path — while comparisons between counters (least-loaded
    picks) are offset-invariant.  ``counters`` materializes the true
    values.
    """

    def __init__(self, n_clusters: int) -> None:
        if n_clusters < 1:
            raise ValueError("need at least one cluster")
        self.n_clusters = n_clusters
        self._raw: List[int] = [0] * n_clusters
        self.dispatches = 0

    @property
    def counters(self) -> List[int]:
        """The true DCOUNT values (their sum is always zero)."""
        offset = self.dispatches
        return [c - offset for c in self._raw]

    def dispatch(self, cluster: int) -> None:
        """Account one instruction dispatched to *cluster*."""
        self.dispatches += 1
        self._raw[cluster] += self.n_clusters

    def imbalance(self) -> int:
        """Maximum absolute counter value (the steering imbalance figure)."""
        offset = self.dispatches
        best = 0
        for c in self._raw:
            c -= offset
            if c < 0:
                c = -c
            if c > best:
                best = c
        return best

    def least_loaded(self) -> int:
        """Cluster with the minimum counter (ties break to the lowest id)."""
        counters = self._raw
        best = 0
        for c in range(1, self.n_clusters):
            if counters[c] < counters[best]:
                best = c
        return best

    def least_loaded_among(self, candidates: Iterable[int]) -> int:
        """Least-loaded cluster restricted to *candidates* (ties break
        to the lowest id; any order of a non-empty iterable)."""
        counters = self._raw
        best = -1
        best_count = 0
        for c in candidates:
            count = counters[c]
            if (best < 0 or count < best_count
                    or (count == best_count and c < best)):
                best = c
                best_count = count
        return best


class NReadyMeter:
    """Accumulates the per-cycle NREADY imbalance figure.

    Each cycle the core reports, per cluster and per side (integer/fp),
    how many *ready* instructions were left unissued by capacity limits
    and how much idle issue capacity remained.  Ready-but-stuck work in
    one cluster only counts when another cluster had idle capacity on
    the same side; idle capacity is taken from clusters that had no
    leftover of their own on that side (a cluster with leftover has, by
    construction, no usable idle capacity there).
    """

    def __init__(self, n_clusters: int) -> None:
        self.n_clusters = n_clusters
        self.total = 0
        self.cycles = 0

    def record(self, leftover_int: Sequence[int], idle_int: Sequence[int],
               leftover_fp: Sequence[int], idle_fp: Sequence[int]) -> None:
        """Accumulate one cycle's measurement."""
        self.cycles += 1
        self.total += self._match(leftover_int, idle_int)
        self.total += self._match(leftover_fp, idle_fp)

    def record_idle(self) -> None:
        """A cycle with no capacity-stuck instruction on either side.

        Equivalent to :meth:`record` with all-zero leftover vectors
        (``_match`` contributes 0 whenever nothing is stuck), without
        requiring the caller to compute idle capacities at all.
        """
        self.cycles += 1

    @staticmethod
    def _match(leftover: Sequence[int], idle: Sequence[int]) -> int:
        stuck = 0
        usable_idle = 0
        for c, left in enumerate(leftover):
            if left:
                stuck += left
            else:
                usable_idle += idle[c]
        return stuck if stuck < usable_idle else usable_idle

    @property
    def average(self) -> float:
        """Average NREADY per cycle — the paper's "workload imbalance"."""
        return self.total / self.cycles if self.cycles else 0.0
