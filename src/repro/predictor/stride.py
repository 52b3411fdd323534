"""The paper's stride value predictor (§2.2).

An untagged, direct-mapped table indexed by the PC and the operand slot
(left/right).  "Each entry contains the last value, the last observed
stride and a 2-bit counter that assigns confidence to the prediction."
The predicted value is ``last_value + stride``; the prediction is used
when the counter is greater than 1.

Two update disciplines are provided:

* **two-delta** (default): the predicting stride is only replaced after
  the same new stride has been observed twice in a row (Sazeides &
  Smith — the paper's own reference [19]); a replaced stride restarts
  the confidence counter.  This keeps one-off stride breaks (loop
  restarts, pointer rewinds) from poisoning the predicting stride, and
  was the standard stride predictor design by 2000.
* **naive** (``two_delta=False``): the stride is replaced on every
  mismatch, the literal reading of the paper's 3-field entry.  Exposed
  for the predictor ablation benchmark.

Because the table is untagged, small tables alias different static
operands onto the same entry — this is what degrades the 1K-entry
configurations of Figure 5.
"""

from __future__ import annotations

from ..errors import ConfigError
from .base import ValuePredictor

__all__ = ["StridePredictor"]

_WRAP = 1 << 64
_INT_MIN = -(1 << 63)


def _wrap64(value: int) -> int:
    return (value - _INT_MIN) % _WRAP + _INT_MIN


class StridePredictor(ValuePredictor):
    """Stride predictor with 2-bit confidence counters.

    Args:
        entries: table size (power of two); the paper sweeps 1K..128K.
        confidence_threshold: counter value above which a prediction is
            confident (paper: "greater than 1").
        two_delta: use the two-delta stride update (see module docs).
    """

    def __init__(self, entries: int = 128 * 1024,
                 confidence_threshold: int = 1,
                 two_delta: bool = True) -> None:
        super().__init__()
        if entries <= 0 or entries & (entries - 1):
            raise ConfigError(
                f"entries must be a power of two, got {entries}")
        self.entries = entries
        self.confidence_threshold = confidence_threshold
        self.two_delta = two_delta
        self._mask = entries - 1
        self._last = [0] * entries
        self._stride = [0] * entries
        self._prev_stride = [0] * entries
        self._counter = [0] * entries

    def _index(self, pc: int, slot: int) -> int:
        return (((pc >> 2) << 1) | (slot & 1)) & self._mask

    def trainer(self, pc: int, slot: int):
        """``train(actual)`` for one static operand: the training rule.

        The new stride is ``actual - last``.  Seen again, it raises the
        counter (saturating at 3); otherwise the counter drops
        (saturating at 0) and, without two-delta, the new stride
        replaces the old one at once.  With two-delta a new stride
        replaces the old one only when it repeats the previous
        observation, and the counter restarts at 1.  The table index
        and list handles are bound once, so a call does no index
        arithmetic or attribute lookups.
        """
        def train(actual, index=self._index(pc, slot), last=self._last,
                  stride=self._stride, prev=self._prev_stride,
                  counter=self._counter, two_delta=self.two_delta):
            new_stride = actual - last[index]
            if not -0x8000000000000000 <= new_stride < 0x8000000000000000:
                new_stride = _wrap64(new_stride)
            if new_stride == stride[index]:
                c = counter[index]
                if c < 3:
                    counter[index] = c + 1
            elif two_delta and new_stride == prev[index]:
                # Seen twice in a row: adopt it, confidence restarts.
                stride[index] = new_stride
                counter[index] = 1
            else:
                if not two_delta:
                    stride[index] = new_stride
                c = counter[index]
                if c > 0:
                    counter[index] = c - 1
            prev[index] = new_stride
            last[index] = actual
        return train

    def bind(self, pc: int, slot: int):
        """``predict(actual) -> (value, confident)`` for one static
        operand: ``last + stride``, confident when the counter clears
        the threshold, recorded in the stats and then trained on
        *actual* by :meth:`trainer`'s closure."""
        def predict(actual, index=self._index(pc, slot), last=self._last,
                    stride=self._stride, counter=self._counter,
                    record=self.stats.record,
                    threshold=self.confidence_threshold,
                    train=self.trainer(pc, slot)):
            predicted = last[index] + stride[index]
            if not -0x8000000000000000 <= predicted < 0x8000000000000000:
                predicted = _wrap64(predicted)
            confident = counter[index] > threshold
            record(confident, predicted == actual)
            train(actual)
            return predicted, confident
        return predict
