"""Value predictors: the paper's stride predictor plus oracle/null bounds."""

from .base import NullPredictor, ValuePredictor, ValuePredictorStats
from .context import ContextPredictor, HybridPredictor
from .perfect import PerfectPredictor
from .stride import StridePredictor

__all__ = ["NullPredictor", "ValuePredictor", "ValuePredictorStats",
           "ContextPredictor", "HybridPredictor", "PerfectPredictor",
           "StridePredictor", "PREDICTORS"]

#: Each ``ProcessorConfig.predictor`` name and the constructor that
#: builds its predictor from the config, in the order the CLI offers
#: them.
PREDICTORS = {
    "none": lambda config: NullPredictor(),
    "stride": lambda config: StridePredictor(
        config.vp_entries, config.vp_confidence_threshold,
        two_delta=config.vp_two_delta),
    "context": lambda config: ContextPredictor(
        l2_entries=config.vp_entries,
        confidence_threshold=config.vp_confidence_threshold),
    "hybrid": lambda config: HybridPredictor(
        stride_entries=config.vp_entries),
    "perfect": lambda config: PerfectPredictor(),
}
