"""The branch direction predictor.

Table 1 of the paper: "Combined predictor of 1K entries with a Gshare
with 64K 2-bit counters, 16 bit global history, and a bimodal predictor
of 2K entries with 2-bit counters."

Every table holds classic 2-bit saturating counters, initialized weakly
taken, that predict taken when the counter is >= 2.  Branch *targets*
are assumed perfect unless a BTB is configured (:mod:`.btb`); only
conditional-branch direction is predicted — the standard simplification
for trace-driven simulation, applied uniformly to every configuration
(see DESIGN.md §3).
"""

from __future__ import annotations

__all__ = ["CombinedPredictor", "BranchPredictorStats"]


class BranchPredictorStats:
    """Direction-prediction counters."""

    __slots__ = ("lookups", "mispredictions")

    def __init__(self) -> None:
        self.lookups = 0
        self.mispredictions = 0

    @property
    def accuracy(self) -> float:
        if not self.lookups:
            return 1.0
        return 1.0 - self.mispredictions / self.lookups


class CombinedPredictor:
    """McFarling-style combined predictor (the paper's configuration).

    A chooser table selects, per branch, between gshare (indexed by the
    PC xor the global history) and bimodal (indexed by the PC); the
    chooser trains toward whichever component was right when they
    disagree.  The three counter tables are flat lists, and the global
    history is an int of *history_bits* bits, newest outcome lowest.
    """

    def __init__(self, chooser_entries: int = 1024,
                 gshare_entries: int = 64 * 1024, history_bits: int = 16,
                 bimodal_entries: int = 2048) -> None:
        for entries in (chooser_entries, gshare_entries, bimodal_entries):
            if entries <= 0 or entries & (entries - 1):
                raise ValueError(f"predictor entries must be a power of "
                                 f"two, got {entries}")
        self.chooser = [2] * chooser_entries
        self.gshare = [2] * gshare_entries
        self.bimodal = [2] * bimodal_entries
        self.history = 0
        self._chooser_mask = chooser_entries - 1
        self._gshare_mask = gshare_entries - 1
        self._bimodal_mask = bimodal_entries - 1
        self._history_mask = (1 << history_bits) - 1
        self.stats = BranchPredictorStats()

    def predict(self, pc: int) -> bool:
        """Predicted direction of the conditional branch at *pc*."""
        index = pc >> 2
        if self.chooser[index & self._chooser_mask] >= 2:
            return self.gshare[(index ^ self.history)
                               & self._gshare_mask] >= 2
        return self.bimodal[index & self._bimodal_mask] >= 2

    def update(self, pc: int, taken: bool) -> None:
        """Fetch's training on a resolved branch: counts the lookup and
        whether :meth:`predict` missed it, then trains through
        :meth:`trainer`'s closure."""
        stats = self.stats
        stats.lookups += 1
        if self.predict(pc) != taken:
            stats.mispredictions += 1
        self.trainer(pc)(taken)

    def trainer(self, pc: int):
        """``train(taken)`` for the conditional branch at *pc*: the
        training rule.

        When gshare and bimodal disagree, the chooser counter moves
        toward the one that was right; both components' counters move
        toward *taken*, and *taken* enters the global history.  The
        chooser and bimodal indices are resolved once; gshare's depends
        on the history at each call.  Records no stats.
        """
        index = pc >> 2

        def train(taken, bp=self, index=index,
                  chooser=self.chooser, ci=index & self._chooser_mask,
                  gshare=self.gshare, gmask=self._gshare_mask,
                  bimodal=self.bimodal, bi=index & self._bimodal_mask,
                  hmask=self._history_mask):
            history = bp.history
            gi = (index ^ history) & gmask
            g = gshare[gi]
            b = bimodal[bi]
            if (g >= 2) != (b >= 2):
                c = chooser[ci]
                if (g >= 2) == taken:
                    if c < 3:
                        chooser[ci] = c + 1
                elif c > 0:
                    chooser[ci] = c - 1
            if taken:
                if g < 3:
                    gshare[gi] = g + 1
                if b < 3:
                    bimodal[bi] = b + 1
            else:
                if g > 0:
                    gshare[gi] = g - 1
                if b > 0:
                    bimodal[bi] = b - 1
            bp.history = ((history << 1) | taken) & hmask
        return train
