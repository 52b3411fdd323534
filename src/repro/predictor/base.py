"""Value-predictor interface and statistics.

The paper (§2.2) predicts the **source operands** of instructions: the
prediction table is "indexed by the PC and the operand order
(left/right)".  Lookups and updates both happen at decode, and a
prediction is *confident* — and therefore actually used for speculative
dispatch — when its 2-bit counter is greater than 1.

Only integer operands are predicted ("fp values ... are not considered
by our predictor", §3.3); the core enforces this, so implementations may
assume integer values.
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple

__all__ = ["Prediction", "ValuePredictor", "NullPredictor",
           "ValuePredictorStats"]


class Prediction(NamedTuple):
    """Outcome of a decode-time lookup.

    Attributes:
        value: the predicted operand value.
        confident: True when the confidence counter clears the paper's
            threshold (counter > 1) and the prediction may be used.
    """

    value: int
    confident: bool


class ValuePredictorStats:
    """Aggregate accuracy counters, matching Figure 5(b)'s metrics.

    *confident* / *lookups* is the fraction of values for which a
    prediction was offered; ``1 -`` that fraction is the paper's
    "predicted value was not used because it was not confident".
    *confident_correct* / *confident* is the paper's **hit ratio**
    ("correctly predicted values over predicted values").
    """

    __slots__ = ("lookups", "confident", "confident_correct")

    def __init__(self) -> None:
        self.lookups = 0
        self.confident = 0
        self.confident_correct = 0

    def record(self, confident: bool, correct: bool) -> None:
        self.lookups += 1
        if confident:
            self.confident += 1
            if correct:
                self.confident_correct += 1

    @property
    def confident_fraction(self) -> float:
        """Fraction of lookups that produced a usable prediction."""
        return self.confident / self.lookups if self.lookups else 0.0

    @property
    def hit_ratio(self) -> float:
        """Correct confident predictions over confident predictions."""
        return (self.confident_correct / self.confident
                if self.confident else 0.0)


class ValuePredictor:
    """Interface all value predictors implement.

    ``predict`` receives the architecturally correct value so that (a)
    the perfect predictor can be expressed and (b) accuracy statistics
    are collected in one place.  Real predictors must not peek at it
    when forming the prediction.
    """

    def __init__(self) -> None:
        self.stats = ValuePredictorStats()

    def predict(self, pc: int, slot: int, actual: int) -> Prediction:
        """Decode-time lookup for operand *slot* of the instruction at *pc*."""
        raise NotImplementedError

    def update(self, pc: int, slot: int, actual: int) -> None:
        """Decode-time training with the correct operand value."""
        raise NotImplementedError

    def predict_update(self, pc: int, slot: int, actual: int) -> Prediction:
        """Fused lookup + training — the decode stage's hot-path entry.

        Semantically identical to ``predict`` followed by ``update``;
        implementations may override it to do both in one table walk.
        The core only unpacks the result as ``(value, confident)``, so
        an override may return a plain tuple.
        """
        prediction = self.predict(pc, slot, actual)
        self.update(pc, slot, actual)
        return prediction

    def bind(self, pc: int, slot: int) -> Callable[[int], tuple]:
        """``predict_update`` pre-bound to one static operand.

        The call takes the actual value and returns ``(value,
        confident)``; the decode stage binds one per predictable source
        of each static instruction.  Implementations may override it to
        resolve table indices once, at bind time.
        """
        return functools.partial(self.predict_update, pc, slot)

    def trainer(self, pc: int, slot: int) -> Callable[[int], None]:
        """``update`` pre-bound to one static operand.

        The call takes the actual value; functional warming
        (:meth:`repro.isa.executor.FunctionalExecutor.set_train_hooks`)
        binds one per predictable source of each static instruction.
        Implementations may override it to resolve table indices once,
        at bind time.  A predictor whose ``update`` does nothing sets
        ``trainer = None`` instead, so warming compiles no value hook.
        """
        return functools.partial(self.update, pc, slot)

    def _record(self, prediction: Prediction, actual: int) -> Prediction:
        self.stats.record(prediction.confident, prediction.value == actual)
        return prediction


class NullPredictor(ValuePredictor):
    """Never offers a prediction — the paper's "no predict" configurations."""

    trainer = None  # nothing to learn

    def predict(self, pc: int, slot: int, actual: int) -> Prediction:
        return self._record(Prediction(0, False), actual)

    def update(self, pc: int, slot: int, actual: int) -> None:
        pass
