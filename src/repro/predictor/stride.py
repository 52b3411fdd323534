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

from typing import Tuple

from ..errors import ConfigError
from .base import Prediction, ValuePredictor

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

    def predict(self, pc: int, slot: int, actual: int) -> Prediction:
        index = self._index(pc, slot)
        predicted = _wrap64(self._last[index] + self._stride[index])
        confident = self._counter[index] > self.confidence_threshold
        return self._record(Prediction(predicted, confident), actual)

    def update(self, pc: int, slot: int, actual: int) -> None:
        index = self._index(pc, slot)
        new_stride = _wrap64(actual - self._last[index])
        if new_stride == self._stride[index]:
            if self._counter[index] < 3:
                self._counter[index] += 1
        elif self.two_delta:
            if new_stride == self._prev_stride[index]:
                # Seen twice in a row: adopt it, confidence restarts.
                self._stride[index] = new_stride
                self._counter[index] = 1
            elif self._counter[index] > 0:
                self._counter[index] -= 1
        else:
            self._stride[index] = new_stride
            if self._counter[index] > 0:
                self._counter[index] -= 1
        self._prev_stride[index] = new_stride
        self._last[index] = actual

    def predict_update(self, pc: int, slot: int,
                       actual: int) -> Tuple[int, bool]:
        """Fused lookup + two-delta training in a single table walk.

        Exactly ``predict`` followed by ``update`` (the two read the
        same entry), folded together for the decode hot path, which
        unpacks the result: it is a plain ``(value, confident)`` tuple,
        because building a :class:`Prediction` costs about as much as
        the table walk.
        """
        index = (((pc >> 2) << 1) | (slot & 1)) & self._mask
        last = self._last[index]
        stride = self._stride[index]
        counter = self._counter[index]
        predicted = (last + stride - _INT_MIN) % _WRAP + _INT_MIN
        confident = counter > self.confidence_threshold
        stats = self.stats
        stats.lookups += 1
        if confident:
            stats.confident += 1
            if predicted == actual:
                stats.confident_correct += 1
        new_stride = (actual - last - _INT_MIN) % _WRAP + _INT_MIN
        if new_stride == stride:
            if counter < 3:
                self._counter[index] = counter + 1
        elif self.two_delta:
            if new_stride == self._prev_stride[index]:
                # Seen twice in a row: adopt it, confidence restarts.
                self._stride[index] = new_stride
                self._counter[index] = 1
            elif counter > 0:
                self._counter[index] = counter - 1
        else:
            self._stride[index] = new_stride
            if counter > 0:
                self._counter[index] = counter - 1
        self._prev_stride[index] = new_stride
        self._last[index] = actual
        return predicted, confident

    def bind(self, pc: int, slot: int):
        """A pre-bound ``predict_update(actual)`` for one static operand.

        Returns exactly what :meth:`predict_update` returns for this
        ``(pc, slot)`` and leaves the same table state and stats; the
        table index and list handles are resolved once, at bind time,
        as :meth:`trainer` does.
        """
        index = self._index(pc, slot)

        def predict_update(actual, index=index, last=self._last,
                           stride=self._stride, prev=self._prev_stride,
                           counter=self._counter, stats=self.stats,
                           threshold=self.confidence_threshold,
                           two_delta=self.two_delta):
            value = last[index]
            step = stride[index]
            c = counter[index]
            predicted = value + step
            if not -0x8000000000000000 <= predicted < 0x8000000000000000:
                predicted = _wrap64(predicted)
            confident = c > threshold
            stats.lookups += 1
            if confident:
                stats.confident += 1
                if predicted == actual:
                    stats.confident_correct += 1
            new_stride = actual - value
            if not -0x8000000000000000 <= new_stride < 0x8000000000000000:
                new_stride = _wrap64(new_stride)
            if new_stride == step:
                if c < 3:
                    counter[index] = c + 1
            elif two_delta:
                if new_stride == prev[index]:
                    stride[index] = new_stride
                    counter[index] = 1
                elif c > 0:
                    counter[index] = c - 1
            else:
                stride[index] = new_stride
                if c > 0:
                    counter[index] = c - 1
            prev[index] = new_stride
            last[index] = actual
            return predicted, confident
        return predict_update

    def trainer(self, pc: int, slot: int):
        """A pre-bound ``train(actual)`` closure for one static operand.

        State evolution is exactly :meth:`update` for this ``(pc,
        slot)``; the table index and list handles are resolved once at
        bind time, so the functional-warming fast path pays no index
        arithmetic or attribute lookups per call.  Stats are *not*
        recorded — training observes the committed stream, it does not
        predict.
        """
        index = self._index(pc, slot)
        last, stride = self._last, self._stride
        prev, counter = self._prev_stride, self._counter
        if self.two_delta:
            def train(actual, index=index, last=last, stride=stride,
                      prev=prev, counter=counter):
                new_stride = actual - last[index]
                if not -0x8000000000000000 <= new_stride \
                        < 0x8000000000000000:
                    new_stride = _wrap64(new_stride)
                if new_stride == stride[index]:
                    c = counter[index]
                    if c < 3:
                        counter[index] = c + 1
                elif new_stride == prev[index]:
                    stride[index] = new_stride
                    counter[index] = 1
                else:
                    c = counter[index]
                    if c > 0:
                        counter[index] = c - 1
                prev[index] = new_stride
                last[index] = actual
        else:
            def train(actual, index=index, last=last, stride=stride,
                      prev=prev, counter=counter):
                new_stride = actual - last[index]
                if not -0x8000000000000000 <= new_stride \
                        < 0x8000000000000000:
                    new_stride = _wrap64(new_stride)
                if new_stride == stride[index]:
                    c = counter[index]
                    if c < 3:
                        counter[index] = c + 1
                else:
                    stride[index] = new_stride
                    c = counter[index]
                    if c > 0:
                        counter[index] = c - 1
                prev[index] = new_stride
                last[index] = actual
        return train

    def entry(self, pc: int, slot: int) -> tuple:
        """(last, stride, counter) for tests and introspection."""
        index = self._index(pc, slot)
        return (self._last[index], self._stride[index], self._counter[index])
