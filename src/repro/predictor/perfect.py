"""Perfect value predictor — the upper bound of Figure 3.

Always predicts the architecturally correct value with full confidence.
The core still restricts prediction to integer operands, which is why
the paper's perfect-prediction communication rate is not zero
("Communications are not zero because of fp values", §3.3).
"""

from __future__ import annotations

from .base import ValuePredictor

__all__ = ["PerfectPredictor"]


class PerfectPredictor(ValuePredictor):
    """Oracle predictor: value = actual, always confident."""

    trainer = None  # nothing to learn

    def bind(self, pc: int, slot: int):
        """``predict(actual)``: *actual*, confident, recorded a hit."""
        def predict(actual, record=self.stats.record):
            record(True, True)
            return actual, True
        return predict
