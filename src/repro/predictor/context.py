"""Context-based (FCM) and hybrid value predictors.

The paper closes §3.3 noting that "the performance of the VPB scheme may
significantly be improved by a more effective predictor" and §6 repeats
that its stride predictor is deliberately simple.  These predictors are
the natural next step the authors point at (Sazeides & Smith's
finite-context-method family — their own reference [19]):

* :class:`ContextPredictor` — a two-level FCM: a first-level table maps
  (PC, slot) to a hash of the operand's recent values; a second-level
  table maps that hash to the predicted next value with a 2-bit counter.
  Catches repeating non-arithmetic sequences (table walks, cyclic
  coefficients) that stride prediction cannot.
* :class:`HybridPredictor` — stride + context with a per-entry 2-bit
  chooser trained toward whichever component was right, the classic
  tournament arrangement.
"""

from __future__ import annotations

from ..errors import ConfigError
from .base import ValuePredictor
from .stride import StridePredictor

__all__ = ["ContextPredictor", "HybridPredictor"]

_MASK64 = (1 << 64) - 1


def _mix(history: int, value: int) -> int:
    """Fold a value into a history hash: the xor of the value's three
    low 16-bit chunks, xored into the history shifted left 5 bits
    (cheap in hardware)."""
    folded = (value ^ (value >> 16) ^ (value >> 32)) & 0xFFFF
    return ((history << 5) ^ folded) & _MASK64


class ContextPredictor(ValuePredictor):
    """Two-level finite-context-method predictor.

    Each operand's first-level entry holds a 64-bit history: every value
    is folded into it by :func:`_mix`, which shifts the history 5 bits
    per value.  The second-level index keeps the history's low 16 bits
    (the default 64K entries) or 17 (the ``context`` configuration's
    128K), so the last four values select the entry, each older one by
    5 bits fewer: the fourth by only one or two bits.

    Args:
        l1_entries: first-level (history) table size, power of two.
        l2_entries: second-level (value) table size, power of two.
        confidence_threshold: counter value above which predictions are
            used (2-bit counter, like the paper's stride predictor).
    """

    def __init__(self, l1_entries: int = 16 * 1024,
                 l2_entries: int = 64 * 1024,
                 confidence_threshold: int = 1) -> None:
        super().__init__()
        for name, entries in (("l1_entries", l1_entries),
                              ("l2_entries", l2_entries)):
            if entries <= 0 or entries & (entries - 1):
                raise ConfigError(f"{name} must be a power of two")
        self.confidence_threshold = confidence_threshold
        self._l1_mask = l1_entries - 1
        self._l2_mask = l2_entries - 1
        self._history = [0] * l1_entries
        self._value = [0] * l2_entries
        self._counter = [0] * l2_entries

    def _l1_index(self, pc: int, slot: int) -> int:
        return (((pc >> 2) << 1) | (slot & 1)) & self._l1_mask

    def trainer(self, pc: int, slot: int):
        """``train(actual)`` for one static operand: the entry its
        history selects gains confidence when it held *actual* and
        loses it otherwise, taking *actual* once confidence is gone;
        *actual* then joins the operand's history."""
        def train(actual, l1=self._l1_index(pc, slot),
                  history=self._history, value=self._value,
                  counter=self._counter, mask=self._l2_mask):
            hashed = history[l1]
            index = hashed & mask
            c = counter[index]
            if value[index] == actual:
                if c < 3:
                    counter[index] = c + 1
            elif c > 0:
                counter[index] = c - 1
            else:
                value[index] = actual
            history[l1] = _mix(hashed, actual)
        return train

    def bind(self, pc: int, slot: int):
        """``predict(actual) -> (value, confident)`` for one static
        operand: the value its history selects, recorded in the stats
        and then trained on *actual* by :meth:`trainer`'s closure."""
        def predict(actual, l1=self._l1_index(pc, slot),
                    history=self._history, value=self._value,
                    counter=self._counter, mask=self._l2_mask,
                    record=self.stats.record,
                    threshold=self.confidence_threshold,
                    train=self.trainer(pc, slot)):
            index = history[l1] & mask
            predicted = value[index]
            confident = counter[index] > threshold
            record(confident, predicted == actual)
            train(actual)
            return predicted, confident
        return predict


class HybridPredictor(ValuePredictor):
    """Stride/context tournament predictor with a per-entry chooser.

    The chooser (2-bit counter per (PC, slot)) trains toward the
    component that predicted correctly when the two disagree; the
    offered prediction is the chosen component's, confident only when
    that component is confident.
    """

    def __init__(self, stride_entries: int = 64 * 1024,
                 context_l1: int = 16 * 1024,
                 context_l2: int = 64 * 1024,
                 chooser_entries: int = 16 * 1024) -> None:
        super().__init__()
        if chooser_entries <= 0 or chooser_entries & (chooser_entries - 1):
            raise ConfigError("chooser_entries must be a power of two")
        self.stride = StridePredictor(stride_entries)
        self.context = ContextPredictor(context_l1, context_l2)
        self._chooser_mask = chooser_entries - 1
        # 0..3; >= 2 prefers the context component.
        self._chooser = [1] * chooser_entries

    def _chooser_index(self, pc: int, slot: int) -> int:
        return (((pc >> 2) << 1) | (slot & 1)) & self._chooser_mask

    def trainer(self, pc: int, slot: int):
        """``train(actual)`` for one static operand: each component's
        ``bind`` call, so each predicts and trains as it would alone
        (and counts its own stats, which nothing reports), then the
        chooser moves toward whichever was right when they disagree.
        Returns the ``(value, confident)`` the chooser picked before it
        moved, which :meth:`bind` reports."""
        def train(actual, stride=self.stride.bind(pc, slot),
                  context=self.context.bind(pc, slot),
                  chooser=self._chooser,
                  index=self._chooser_index(pc, slot)):
            by_stride = stride(actual)
            by_context = context(actual)
            c = chooser[index]
            stride_right = by_stride[0] == actual
            if stride_right != (by_context[0] == actual):
                if stride_right:
                    if c > 0:
                        chooser[index] = c - 1
                elif c < 3:
                    chooser[index] = c + 1
            return by_context if c >= 2 else by_stride
        return train

    def bind(self, pc: int, slot: int):
        """``predict(actual) -> (value, confident)`` for one static
        operand: :meth:`trainer`'s call, its pick recorded in the
        stats."""
        def predict(actual, train=self.trainer(pc, slot),
                    record=self.stats.record):
            predicted, confident = train(actual)
            record(confident, predicted == actual)
            return predicted, confident
        return predict
