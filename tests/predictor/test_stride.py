"""Unit tests for the stride value predictor."""

import tracemalloc

import pytest

from repro.predictor import StridePredictor

from .reference_predictors import stride_entry


def feed(predictor, pc, slot, values):
    """Stream values through decode's call; returns the
    ``(value, confident)`` predictions."""
    predict = predictor.bind(pc, slot)
    return [predict(value) for value in values]


class TestBasicStride:
    def test_constant_stride_becomes_confident_and_correct(self):
        predictor = StridePredictor(1024)
        preds = feed(predictor, 0x1000, 0, [10, 14, 18, 22, 26, 30])
        assert not preds[0][1]
        assert preds[4:] == [(26, True), (30, True)]

    def test_constant_value_is_stride_zero(self):
        predictor = StridePredictor(1024)
        preds = feed(predictor, 0x1000, 0, [7] * 6)
        assert preds[-1] == (7, True)

    def test_random_values_never_confident(self):
        predictor = StridePredictor(1024)
        values = [311, 17, 9024, 3, 555, 218, 42, 1009]
        preds = feed(predictor, 0x1000, 0, values)
        assert not any(confident for _, confident in preds)

    def test_slots_are_independent(self):
        predictor = StridePredictor(1024)
        feed(predictor, 0x1000, 0, [1, 2, 3, 4, 5])
        preds = feed(predictor, 0x1000, 1, [100, 100, 100, 100])
        assert preds[-1][0] == 100

    def test_counter_threshold_gates_confidence(self):
        strict = StridePredictor(1024, confidence_threshold=2)
        preds = feed(strict, 0x1000, 0, [0, 4, 8, 12, 16, 20])
        # threshold 2 needs counter==3, i.e. one more correct stride
        first_confident = next(i for i, (_, confident) in enumerate(preds)
                               if confident)
        loose = StridePredictor(1024, confidence_threshold=1)
        preds2 = feed(loose, 0x1000, 0, [0, 4, 8, 12, 16, 20])
        first_confident2 = next(i for i, (_, confident) in enumerate(preds2)
                                if confident)
        assert first_confident > first_confident2


class TestTwoDelta:
    def test_single_break_does_not_replace_stride(self):
        predictor = StridePredictor(1024, two_delta=True)
        # stride 4 with one reset, then stride 4 continues
        feed(predictor, 0x1000, 0, [0, 4, 8, 12, 16])
        _, stride, _, _ = stride_entry(predictor, 0x1000, 0)
        assert stride == 4
        feed(predictor, 0x1000, 0, [0])     # break (delta -16)
        _, stride, _, _ = stride_entry(predictor, 0x1000, 0)
        assert stride == 4                   # kept
        preds = feed(predictor, 0x1000, 0, [4, 8, 12])
        assert [value for value, _ in preds] == [4, 8, 12]

    def test_repeated_new_stride_is_adopted(self):
        predictor = StridePredictor(1024, two_delta=True)
        feed(predictor, 0x1000, 0, [0, 4, 8, 12])     # stride 4
        feed(predictor, 0x1000, 0, [20, 28, 36, 44])  # stride 8 twice+
        _, stride, _, _ = stride_entry(predictor, 0x1000, 0)
        assert stride == 8

    def test_naive_mode_replaces_immediately(self):
        predictor = StridePredictor(1024, two_delta=False)
        feed(predictor, 0x1000, 0, [0, 4, 8, 12])
        predictor.trainer(0x1000, 0)(100)     # delta 88
        predictor.settle()
        _, stride, _, _ = stride_entry(predictor, 0x1000, 0)
        assert stride == 88

    def test_periodic_loop_restart_hit_rates(self):
        """Two-delta mispredicts once per period; naive twice."""
        def run(two_delta):
            predictor = StridePredictor(1024, two_delta=two_delta)
            values = list(range(0, 32, 4)) * 20  # 20 periods of 8 iters
            return sum(1 for (value, confident), actual in zip(
                feed(predictor, 0x1000, 0, values), values)
                if confident and value != actual)
        assert run(True) < run(False)


class TestTableMechanics:
    def test_power_of_two_enforced(self):
        with pytest.raises(ValueError):
            StridePredictor(1000)

    def test_construction_allocates_no_table(self):
        # The default 128K-entry table makes a record per index asked
        # about, not 128K entries up front.
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            predictor = StridePredictor()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert predictor.entries == 128 * 1024
        assert held < 64 * 1024

    def test_records_are_made_per_index_asked_about(self):
        predictor = StridePredictor(1024)
        predictor.bind(0x1000, 0)
        predictor.trainer(0x1000, 1)
        predictor.bind(0x1000 + 4 * 512, 0)   # aliases (0x1000, 0)
        assert len(predictor._records) == 2

    def test_aliasing_in_tiny_table(self):
        predictor = StridePredictor(2)
        feed(predictor, 0x1000, 0, [0, 4, 8, 12, 16])
        # A different PC with the same index trains over the same entry.
        feed(predictor, 0x2000, 0, [100, 100, 100])
        value, _ = predictor.predict_update(0x1000, 0, 20)
        assert value != 20

    def test_large_table_isolates_pcs(self):
        predictor = StridePredictor(1 << 16)
        feed(predictor, 0x1000, 0, [0, 4, 8, 12, 16])
        feed(predictor, 0x2000, 0, [9, 9, 9])
        value, _ = predictor.predict_update(0x1000, 0, 20)
        assert value == 20

    def test_wrap64_values(self):
        predictor = StridePredictor(64)
        big = (1 << 63) - 2
        feed(predictor, 0x1000, 0, [big - 8, big - 4, big])
        value, _ = predictor.predict_update(0x1000, 0, 0)
        assert value == -(1 << 63) + 2   # wrapped


class TestStats:
    def test_stats_accumulate(self):
        predictor = StridePredictor(1024)
        feed(predictor, 0x1000, 0, [0, 4, 8, 12, 16, 20])
        stats = predictor.stats
        assert stats.lookups == 6
        assert 0 < stats.confident < 6
        assert stats.hit_ratio == 1.0
        assert 0 < stats.confident_fraction < 1
