"""Perfect value predictor — the upper bound of Figure 3.

Always predicts the architecturally correct value with full confidence.
The core still restricts prediction to integer operands, which is why
the paper's perfect-prediction communication rate is not zero
("Communications are not zero because of fp values", §3.3).
"""

from __future__ import annotations

from .base import Prediction, ValuePredictor

__all__ = ["PerfectPredictor"]


class PerfectPredictor(ValuePredictor):
    """Oracle predictor: value = actual, always confident."""

    trainer = None  # nothing to learn

    def predict(self, pc: int, slot: int, actual: int) -> Prediction:
        return self._record(Prediction(actual, True), actual)

    def update(self, pc: int, slot: int, actual: int) -> None:
        pass
