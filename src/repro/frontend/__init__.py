"""Processor front end: branch prediction and the fetch engine."""

from .btb import BranchTargetBuffer
from .branch_predictor import BranchPredictorStats, CombinedPredictor
from .fetch import FetchEngine, FetchedInst

__all__ = ["BranchTargetBuffer", "BranchPredictorStats", "CombinedPredictor",
           "FetchEngine", "FetchedInst"]
