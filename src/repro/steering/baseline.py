"""The Baseline steering scheme and its value-prediction variants.

§3.1's Baseline is an enhanced "Advanced RMBS" heuristic generalized to
N clusters:

1. If the workload imbalance (max |DCOUNT|) exceeds a threshold, send
   the instruction to the least loaded cluster.
2. Otherwise identify the clusters with minimum communication penalty:
   2.1 if any source operand is unavailable, the clusters where the
       pending operands are to be produced;
   2.2 if all operands are available, the clusters with the greatest
       number of operands currently mapped;
   2.3 with no source operands, all clusters.
3. Pick the least loaded cluster among those selected by step 2.

§3.2's **Modified** scheme adds, unconditionally: (mod 1) a predicted
operand counts as available, and (mod 2) a predicted operand counts as
mapped in every cluster.  The paper found it performs no better than the
Baseline because mod 2 indiscriminately trades communications for
balance.

§3.3's **VPB** scheme keeps mod 1 but applies mod 2 *only when the
imbalance exceeds a second (lower) threshold*, so prediction is spent on
balance only when balance is actually poor.

Thresholds come from the paper: Baseline rule 1 uses DCOUNT=32 / 16 for
4 / 2 clusters; VPB's mod-2 gate uses DCOUNT=16 / 8.
"""

from __future__ import annotations

from typing import Collection, Optional, Sequence, Tuple

from .base import SourceView, Steerer
from .metrics import DCountTracker

__all__ = ["RMBSSteerer", "BaselineSteerer", "ModifiedSteerer", "VPBSteerer",
           "default_balance_threshold", "default_vpb_threshold"]


def default_balance_threshold(n_clusters: int) -> int:
    """Paper's rule-1 threshold: 32 for 4 clusters, 16 for 2."""
    return 8 * n_clusters


def default_vpb_threshold(n_clusters: int) -> int:
    """Paper's VPB mod-2 gate: 16 for 4 clusters, 8 for 2."""
    return 4 * n_clusters


class RMBSSteerer(Steerer):
    """Parameterized Advanced-RMBS steering (see module docstring).

    Args:
        n_clusters: number of clusters.
        balance_threshold: rule-1 imbalance threshold (``None`` uses the
            paper's value for the cluster count).
        use_mod1: treat predicted operands as available.
        mod2_threshold: imbalance above which predicted operands count
            as mapped everywhere.  ``None`` disables mod 2; ``-1`` makes
            it unconditional (the §3.2 Modified scheme).
    """

    name = "rmbs"

    def __init__(self, n_clusters: int,
                 balance_threshold: Optional[int] = None,
                 use_mod1: bool = False,
                 mod2_threshold: Optional[int] = None) -> None:
        super().__init__(n_clusters)
        if balance_threshold is None:
            balance_threshold = default_balance_threshold(n_clusters)
        self.balance_threshold = balance_threshold
        self.use_mod1 = use_mod1
        self.mod2_threshold = mod2_threshold

    def choose(self, sources: Sequence[SourceView],
               dcount: DCountTracker, pc: Optional[int] = None) -> int:
        if self.n_clusters == 1:
            self.last_reason = "single"
            return 0
        imbalance = dcount.imbalance()
        # Rule 1: correct a gross imbalance unconditionally.
        if imbalance > self.balance_threshold:
            self.last_reason = "balance"
            return dcount.least_loaded()
        mod2 = (self.mod2_threshold is not None
                and imbalance > self.mod2_threshold)
        candidates, self.last_reason = \
            self._communication_candidates(sources, mod2)
        # Rule 3: least loaded among the candidates.
        return dcount.least_loaded_among(candidates)

    # -- rule 2 -----------------------------------------------------------------

    def _communication_candidates(self, sources: Sequence[SourceView],
                                  mod2: bool) -> Tuple[Collection[int], str]:
        """Rule-2 candidate set plus the decision class that produced it.

        Reasons: "pending" (rule 2.1), "mapped" (rule 2.2),
        "unconstrained" (operands with no useful mapping),
        "mod2-all" (§3.2/§3.3's relaxation released every operand),
        "no-sources" (rule 2.3).

        No opcode has more than two source operands, so the vote
        tallies take closed forms: two pending votes agree or tie, and
        two mapped sets vote for their intersection when it is
        non-empty and their union otherwise.  The decode hot path runs
        this as set arithmetic and hands the map table's cached sets to
        rule 3 without copying; rule 3's least-loaded pick does not
        depend on the candidates' order.
        """
        pend_a = pend_b = None
        map_a = map_b = None
        relevant = 0
        mod2_applies = False
        use_mod1 = self.use_mod1
        for src in sources:
            predicted = src.predicted
            if mod2 and predicted:
                # Mod 2: this operand constrains nothing.
                mod2_applies = True
                continue
            relevant += 1
            if src.available or (use_mod1 and predicted):
                mapped = src.mapped
                if mapped:
                    if map_a is None:
                        map_a = mapped
                    else:
                        map_b = mapped
            else:
                # Rule 2.1: vote for the cluster producing it soonest.
                soonest = src.soonest_cluster
                if soonest is not None:
                    if pend_a is None:
                        pend_a = soonest
                    else:
                        pend_b = soonest
        if pend_a is not None:
            if pend_b is None or pend_b == pend_a:
                return (pend_a,), "pending"
            return (pend_a, pend_b), "pending"
        if map_a is not None:
            if map_b is None:
                return map_a, "mapped"
            return (map_a & map_b) or (map_a | map_b), "mapped"
        if relevant and not mod2_applies:
            # Operands exist but none is mapped anywhere useful (only
            # possible for always-available zero-register operands,
            # which carry no mapping): no constraint.
            return self.all_clusters(), "unconstrained"
        # Rule 2.3 (no sources), or every operand released by mod 2.
        return self.all_clusters(), (
            "mod2-all" if mod2_applies else "no-sources")


class BaselineSteerer(RMBSSteerer):
    """§3.1 Baseline: communication first, balance second (no VP use)."""

    name = "baseline"

    def __init__(self, n_clusters: int,
                 balance_threshold: Optional[int] = None) -> None:
        super().__init__(n_clusters, balance_threshold,
                         use_mod1=False, mod2_threshold=None)


class ModifiedSteerer(RMBSSteerer):
    """§3.2 Modified: both VP modifications applied unconditionally."""

    name = "modified"

    def __init__(self, n_clusters: int,
                 balance_threshold: Optional[int] = None) -> None:
        super().__init__(n_clusters, balance_threshold,
                         use_mod1=True, mod2_threshold=-1)


class VPBSteerer(RMBSSteerer):
    """§3.3 VPB: mod 1 always, mod 2 gated by the imbalance threshold."""

    name = "vpb"

    def __init__(self, n_clusters: int,
                 balance_threshold: Optional[int] = None,
                 vpb_threshold: Optional[int] = None) -> None:
        if vpb_threshold is None:
            vpb_threshold = default_vpb_threshold(n_clusters)
        super().__init__(n_clusters, balance_threshold,
                         use_mod1=True, mod2_threshold=vpb_threshold)
