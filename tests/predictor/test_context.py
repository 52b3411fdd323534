"""Unit tests for the context (FCM) and hybrid value predictors."""

import pytest

from repro.predictor import ContextPredictor, HybridPredictor, StridePredictor

from .test_stride import feed


class TestContextPredictor:
    def test_learns_repeating_cycle_stride_cannot(self):
        """A period-3 non-arithmetic cycle: stride fails, context locks."""
        cycle = [7, 100, 42] * 12
        context = ContextPredictor(1024, 4096)
        stride = StridePredictor(1024)
        context_preds = feed(context, 0x100, 0, list(cycle))
        stride_preds = feed(stride, 0x100, 0, list(cycle))
        def correct_confident(preds, values):
            return sum(1 for p, v in zip(preds, values) if p == (v, True))
        assert (correct_confident(context_preds, cycle)
                > correct_confident(stride_preds, cycle) + 5)

    def test_constant_value_learned(self):
        predictor = ContextPredictor(256, 1024)
        preds = feed(predictor, 0x40, 0, [9] * 10)
        assert preds[-1] == (9, True)

    def test_random_values_not_confident(self):
        predictor = ContextPredictor(256, 1024)
        preds = feed(predictor, 0x40, 0, [3, 1, 4, 159, 26, 535, 8, 97])
        assert not any(p == (v, True)
                       for p, v in zip(preds[2:], [4, 159, 26, 535, 8, 97]))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ContextPredictor(l1_entries=100)
        with pytest.raises(ValueError):
            ContextPredictor(l2_entries=100)

    def test_slots_independent(self):
        predictor = ContextPredictor(1024, 4096)
        feed(predictor, 0x80, 0, [1, 2, 3] * 6)
        preds = feed(predictor, 0x80, 1, [9] * 6)
        assert preds[-1][0] == 9


class TestHybridPredictor:
    def test_covers_both_stride_and_cycle_patterns(self):
        hybrid = HybridPredictor(1024, 1024, 4096, 1024)
        # operand 0 at pc A: arithmetic stride; operand 0 at pc B: cycle.
        stride_values = list(range(0, 120, 4))
        cycle_values = [5, 77, 13] * 10
        s_preds = feed(hybrid, 0x100, 0, stride_values)
        c_preds = feed(hybrid, 0x200, 0, cycle_values)
        s_hits = sum(1 for p, v in zip(s_preds, stride_values)
                     if p == (v, True))
        c_hits = sum(1 for p, v in zip(c_preds, cycle_values)
                     if p == (v, True))
        assert s_hits > len(stride_values) // 2
        assert c_hits > len(cycle_values) // 3

    def test_chooser_migrates_to_better_component(self):
        hybrid = HybridPredictor(1024, 1024, 4096, 1024)
        index = hybrid._chooser_index(0x300, 0)
        start = hybrid._chooser[index]
        feed(hybrid, 0x300, 0, [11, 95, 3] * 15)   # context-friendly
        assert hybrid._chooser[index] >= start

    def test_stats_recorded_once_per_lookup(self):
        hybrid = HybridPredictor(1024, 1024, 4096, 1024)
        feed(hybrid, 0x40, 0, list(range(10)))
        assert hybrid.stats.lookups == 10

    def test_chooser_validation(self):
        with pytest.raises(ValueError):
            HybridPredictor(chooser_entries=100)
