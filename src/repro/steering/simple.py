"""Reference steerers used as ablation baselines.

These are not from the paper's evaluation but serve the related-work
comparisons it discusses (§5): steering purely for balance (ignoring
dependences, like trace-based partitioning tends to), steering purely by
dependences (ignoring balance, like the dependence-based paradigm), and
blind round-robin.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from .base import SourceView, Steerer
from .metrics import DCountTracker

__all__ = ["RoundRobinSteerer", "BalanceOnlySteerer", "DependenceOnlySteerer"]


class RoundRobinSteerer(Steerer):
    """Dispatch to clusters cyclically; perfect count balance, blind to data.

    The rotation is DCOUNT's dispatch count, so it advances on
    *dispatch*, not on ``choose``: decode-stage retries after
    structural stalls do not perturb it.
    """

    name = "round-robin"
    last_reason = "round-robin"

    def choose(self, sources: Sequence[SourceView],
               dcount: DCountTracker, pc=None) -> int:
        return dcount.dispatches % self.n_clusters


class BalanceOnlySteerer(Steerer):
    """Always pick the least-loaded cluster (maximal balance pressure)."""

    name = "balance-only"
    last_reason = "balance"

    def choose(self, sources: Sequence[SourceView],
               dcount: DCountTracker, pc=None) -> int:
        return dcount.least_loaded()


class DependenceOnlySteerer(Steerer):
    """Follow operands only; ignore balance entirely.

    Prefers the cluster producing a pending operand, then the cluster
    with the most mapped operands; ties and no-operand cases fall back
    to cluster 0, which concentrates work — exactly the failure mode
    balance-aware steering exists to avoid.
    """

    name = "dependence-only"

    def choose(self, sources: Sequence[SourceView],
               dcount: DCountTracker, pc=None) -> int:
        pending: Counter = Counter()
        mapped: Counter = Counter()
        for available, mapped_in, soonest, _ in sources:
            if not available and soonest is not None:
                pending[soonest] += 1
            else:
                for cluster in mapped_in:
                    mapped[cluster] += 1
        for votes, reason in ((pending, "pending"), (mapped, "mapped")):
            if votes:
                best = max(votes.values())
                self.last_reason = reason
                return min(c for c, v in votes.items() if v == best)
        self.last_reason = "fallback"
        return 0
