"""Unit tests for the oracle and null predictors."""

from repro.core import make_config, simulate
from repro.predictor import NullPredictor, PerfectPredictor
from repro.workloads import workload_trace


def test_perfect_always_right_and_confident():
    predictor = PerfectPredictor()
    predict = predictor.bind(0x1000, 0)
    for value in (0, -5, 1 << 40):
        assert predict(value) == (value, True)
    assert predictor.trainer is None
    assert predictor.stats.hit_ratio == 1.0
    assert predictor.stats.confident_fraction == 1.0


def test_null_never_confident():
    # Nothing to bind or train: decode and warming skip it, so a run
    # without a value predictor looks nothing up.
    predictor = NullPredictor()
    assert predictor.bind is None and predictor.trainer is None
    result = simulate(workload_trace("rawcaudio", 500),
                      make_config(4, predictor="none", steering="vpb"))
    assert result.vp_stats["lookups"] == 0
    assert result.vp_stats["confident"] == 0
    assert result.vp_stats["hit_ratio"] == 0.0
