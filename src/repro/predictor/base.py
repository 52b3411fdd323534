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

__all__ = ["ValuePredictor", "NullPredictor", "ValuePredictorStats"]


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
    """Base of every value predictor: two per-operand factories.

    Subclasses define both, each taking a static operand ``(pc, slot)``
    and returning a call that takes the operand's actual value:

    * ``trainer(pc, slot)`` returns ``train(actual)``, the predictor's
      training rule with its table indices resolved once, or a call
      that queues *actual* for :meth:`settle` to train.  Functional
      warming binds one per predictable source of each static
      instruction and hands the executor :meth:`settle` with them
      (:meth:`repro.isa.executor.FunctionalExecutor.set_train_hooks`).
      It records no stats: warming observes the committed stream, it
      does not predict.  A predictor with nothing to learn sets
      ``trainer = None``, so warming compiles no value hook for it.
    * ``bind(pc, slot)`` returns ``predict(actual) -> (value,
      confident)``, decode's call: it looks the prediction up, records
      it in :attr:`stats`, then trains on *actual* through the same
      rule :meth:`trainer` feeds.  *actual* lets the perfect
      predictor exist and the stats be counted in one place; a real
      predictor never reads it before its lookup is made.  A predictor
      that never predicts sets ``bind = None``, and decode skips it.
    """

    def __init__(self) -> None:
        self.stats = ValuePredictorStats()

    def predict_update(self, pc: int, slot: int, actual: int) -> tuple:
        """One decode-time lookup and training: ``bind(pc, slot)(actual)``.

        Binds afresh on every call, so it suits probes and tests, not a
        per-instruction loop.
        """
        return self.bind(pc, slot)(actual)

    def settle(self) -> None:
        """Train whatever :meth:`trainer`'s calls have queued.  A
        predictor whose trainer trains at once has nothing queued."""


class NullPredictor(ValuePredictor):
    """Never offers a prediction — the paper's "no predict" configurations."""

    bind = None  # nothing to predict
    trainer = None  # nothing to learn
