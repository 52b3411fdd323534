"""Test-only reference forms of the value predictors' rules.

Each class keeps its real predictor's tables (it subclasses it) but
replaces the per-operand factories with the rules written out plainly:
``predict(pc, slot, actual) -> (value, confident)`` looks up and counts
the stats, and ``update(pc, slot, actual)`` trains.  Decode's order is
``predict`` then ``update``.  Tests hold ``bind``, ``predict_update``
and ``trainer`` (then ``settle``) to these forms, table for table.
"""

from repro.predictor import (ContextPredictor, HybridPredictor,
                             PerfectPredictor, StridePredictor)
from repro.predictor.context import _mix

_EDGE = 1 << 63


def _wrap(value):
    return (value + _EDGE) % (1 << 64) - _EDGE


def stride_entry(predictor, pc, slot):
    """``(last, stride, prev_stride, counter)`` of the stride record
    that *(pc, slot)* indexes, zeros where none was made.  Values still
    queued for it are left out: ``settle()`` trains them."""
    return tuple(predictor._records.get(predictor._index(pc, slot),
                                        (0, 0, 0, 0)))


def _count(stats, value, confident, actual):
    stats.lookups += 1
    if confident:
        stats.confident += 1
        if value == actual:
            stats.confident_correct += 1
    return value, confident


class ReferenceStride(StridePredictor):
    def lookup(self, pc, slot):
        last, stride, _, counter = stride_entry(self, pc, slot)
        return _wrap(last + stride), counter > self.confidence_threshold

    def predict(self, pc, slot, actual):
        return _count(self.stats, *self.lookup(pc, slot), actual)

    def update(self, pc, slot, actual):
        last, stride, prev_stride, counter = stride_entry(self, pc, slot)
        new_stride = _wrap(actual - last)
        if new_stride == stride:
            counter = min(counter + 1, 3)
        elif self.two_delta and new_stride == prev_stride:
            stride = new_stride
            counter = 1
        else:
            if not self.two_delta:
                stride = new_stride
            counter = max(counter - 1, 0)
        self._records[self._index(pc, slot)] = [actual, stride, new_stride,
                                                counter]


class ReferenceContext(ContextPredictor):
    def lookup(self, pc, slot):
        index = self._history[self._l1_index(pc, slot)] & self._l2_mask
        return (self._value[index],
                self._counter[index] > self.confidence_threshold)

    def predict(self, pc, slot, actual):
        return _count(self.stats, *self.lookup(pc, slot), actual)

    def update(self, pc, slot, actual):
        l1 = self._l1_index(pc, slot)
        history = self._history[l1]
        index = history & self._l2_mask
        if self._value[index] == actual:
            self._counter[index] = min(self._counter[index] + 1, 3)
        elif self._counter[index] > 0:
            self._counter[index] -= 1
        else:
            self._value[index] = actual
        self._history[l1] = _mix(history, actual)


class ReferenceHybrid(HybridPredictor):
    """The components count their own stats once per event, as each
    would alone."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.stride = ReferenceStride(self.stride.entries)
        self.context = ReferenceContext(len(self.context._history),
                                        len(self.context._value))

    def predict(self, pc, slot, actual):
        by_stride = self.stride.predict(pc, slot, actual)
        by_context = self.context.predict(pc, slot, actual)
        use_context = self._chooser[self._chooser_index(pc, slot)] >= 2
        return _count(self.stats,
                      *(by_context if use_context else by_stride), actual)

    def update(self, pc, slot, actual):
        index = self._chooser_index(pc, slot)
        stride_right = self.stride.lookup(pc, slot)[0] == actual
        context_right = self.context.lookup(pc, slot)[0] == actual
        if context_right and not stride_right:
            self._chooser[index] = min(self._chooser[index] + 1, 3)
        elif stride_right and not context_right:
            self._chooser[index] = max(self._chooser[index] - 1, 0)
        self.stride.update(pc, slot, actual)
        self.context.update(pc, slot, actual)


class ReferencePerfect(PerfectPredictor):
    def predict(self, pc, slot, actual):
        return _count(self.stats, actual, True, actual)

    def update(self, pc, slot, actual):
        pass
