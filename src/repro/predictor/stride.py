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

from typing import Dict, List, Sequence

from ..errors import ConfigError
from .base import ValuePredictor

__all__ = ["StridePredictor"]

_WRAP = 1 << 64
_INT_MIN = -(1 << 63)


def _wrap64(value: int) -> int:
    return (value - _INT_MIN) % _WRAP + _INT_MIN


def _train(record: List[int], values: Sequence[int], two_delta: bool) -> None:
    """Train *record*, ``[last, stride, prev_stride, counter]``, on
    *values* in order: the stride rule, and its only copy.

    Per value, the new stride is ``actual - last``, wrapped to 64 bits.
    Seen again, it raises the counter (saturating at 3); otherwise the
    counter drops (saturating at 0) and, without two-delta, the new
    stride replaces the old one at once.  With two-delta a new stride
    replaces the old one only when it repeats the previous observation,
    and the counter restarts at 1.

    When the last five values are equally spaced by an in-range *d*,
    the record ends at ``[last value, d, d, 3]`` whatever it held: under
    either discipline the second *d* makes the stride *d* with the
    counter at 1 or more, and the two after it saturate the counter.
    Such a sequence is not walked.
    """
    last, stride, prev, counter = record
    if len(values) > 4:
        a, b, c, d, e = values[-5:]
        delta = e - d
        if d - c == delta and c - b == delta and b - a == delta \
                and -0x8000000000000000 <= delta < 0x8000000000000000:
            record[:] = e, delta, delta, 3
            return
    for actual in values:
        new = actual - last
        if not -0x8000000000000000 <= new < 0x8000000000000000:
            new = _wrap64(new)
        if new == stride:
            if counter < 3:
                counter += 1
        elif two_delta and new == prev:
            # Seen twice in a row: adopt it, confidence restarts.
            stride = new
            counter = 1
        else:
            if not two_delta:
                stride = new
            if counter:
                counter -= 1
        prev = new
        last = actual
    record[0] = last
    record[1] = stride
    record[2] = prev
    record[3] = counter


class StridePredictor(ValuePredictor):
    """Stride predictor with 2-bit confidence counters.

    The table holds one record, ``[last, stride, prev_stride,
    counter]``, per index it has been asked about, made on the first
    :meth:`bind` or :meth:`trainer` for that index.  Memory therefore
    grows with the operands a run touches, not with *entries*; the
    index rule, and so the aliasing of every static operand that maps
    to one index onto one shared record, is that of a dense table of
    *entries* records.

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
        self._records: Dict[int, List[int]] = {}
        # Values warming has queued per index, trained by settle().
        self._queues: Dict[int, List[int]] = {}

    def _index(self, pc: int, slot: int) -> int:
        return (((pc >> 2) << 1) | (slot & 1)) & self._mask

    def _record(self, index: int) -> List[int]:
        return self._records.setdefault(index, [0, 0, 0, 0])

    def trainer(self, pc: int, slot: int):
        """``queue(actual)`` for one static operand: appends *actual*
        to its index's queue, shared by every operand that aliases
        there, so the values stay in execution order.  :meth:`settle`
        trains them."""
        index = self._index(pc, slot)
        self._record(index)
        return self._queues.setdefault(index, []).append

    def settle(self) -> None:
        """Train each record on its queued values and empty the
        queues."""
        records, two_delta = self._records, self.two_delta
        for index, queue in self._queues.items():
            if queue:
                _train(records[index], queue, two_delta)
                queue.clear()

    def bind(self, pc: int, slot: int):
        """``predict(actual) -> (value, confident)`` for one static
        operand: ``last + stride``, confident when the counter clears
        the threshold, recorded in the stats and then trained on
        *actual* by the stride rule."""
        def predict(actual, record=self._record(self._index(pc, slot)),
                    count=self.stats.record,
                    threshold=self.confidence_threshold,
                    two_delta=self.two_delta, train=_train):
            predicted = record[0] + record[1]
            if not -0x8000000000000000 <= predicted < 0x8000000000000000:
                predicted = _wrap64(predicted)
            confident = record[3] > threshold
            count(confident, predicted == actual)
            train(record, (actual,), two_delta)
            return predicted, confident
        return predict
