"""Unit tests for the combined direction predictor: its bimodal and
gshare sides, the combination, and its rule against the test-only
reference (``reference_branch_predictor``)."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend import CombinedPredictor

from ..conftest import TakenPredictor
from .reference_branch_predictor import ReferenceCombined


def train(predictor, pc, outcomes):
    hits = 0
    for taken in outcomes:
        if predictor.predict(pc) == taken:
            hits += 1
        predictor.update(pc, taken)
    return hits / len(outcomes)


def bimodal_says(predictor, pc):
    """The bimodal side's direction for *pc*."""
    return predictor.bimodal[(pc >> 2) & (len(predictor.bimodal) - 1)] >= 2


def gshare_says(predictor, pc):
    """The gshare side's direction for *pc* under the current history."""
    index = ((pc >> 2) ^ predictor.history) & (len(predictor.gshare) - 1)
    return predictor.gshare[index] >= 2


def side_accuracy(says, predictor, pc, outcomes):
    """Accuracy one side would have had alone, trained as combined."""
    hits = 0
    for taken in outcomes:
        hits += says(predictor, pc) == taken
        predictor.update(pc, taken)
    return hits / len(outcomes)


class TestBimodal:
    def test_learns_constant_bias(self):
        predictor = CombinedPredictor(64, 1024, 8, 64)
        accuracy = side_accuracy(bimodal_says, predictor, 0x1000,
                                 [True] * 50)
        assert accuracy > 0.9

    def test_hysteresis_survives_single_flip(self):
        predictor = CombinedPredictor(64, 1024, 8, 64)
        for _ in range(4):
            predictor.update(0x1000, True)
        predictor.update(0x1000, False)   # one not-taken
        assert bimodal_says(predictor, 0x1000) is True

    def test_counter_saturates_both_ends(self):
        predictor = CombinedPredictor(64, 1024, 8, 64)
        for _ in range(10):
            predictor.update(0x1000, False)
        assert bimodal_says(predictor, 0x1000) is False
        for _ in range(2):
            predictor.update(0x1000, True)
        assert bimodal_says(predictor, 0x1000) is True

    def test_distinct_pcs_use_distinct_counters(self):
        predictor = CombinedPredictor(64, 1024, 8, 64)
        for _ in range(4):
            predictor.update(0x1000, True)
            predictor.update(0x1004, False)
        assert bimodal_says(predictor, 0x1000) is True
        assert bimodal_says(predictor, 0x1004) is False

    def test_stats_count_mispredictions(self):
        predictor = CombinedPredictor(64, 1024, 8, 64)
        train(predictor, 0x1000, [True, True, False, True])
        assert predictor.stats.lookups == 4
        assert predictor.stats.mispredictions == 1
        assert predictor.stats.accuracy == 0.75


class TestGshare:
    def test_learns_alternating_pattern(self):
        # T,N,T,N... correlates perfectly with 1 bit of history.
        predictor = CombinedPredictor(64, 1024, 8, 64)
        pattern = [bool(i % 2) for i in range(200)]
        assert side_accuracy(gshare_says, predictor, 0x2000, pattern) > 0.8

    def test_history_updates(self):
        predictor = CombinedPredictor(64, 1024, 4, 64)
        train_branch = predictor.trainer(0x2000)
        for taken in (True, False, True, True):
            train_branch(taken)
        assert predictor.history == 0b1011
        for taken in (False, False):
            predictor.update(0x2000, taken)
        assert predictor.history == 0b1100   # four bits kept


class TestCombined:
    def test_beats_bimodal_on_patterned_branch(self):
        pattern = [bool(i % 2) for i in range(300)]
        combined = train(CombinedPredictor(64, 1024, 8, 64), 0x3000,
                         pattern)
        bimodal = side_accuracy(bimodal_says, CombinedPredictor(
            64, 1024, 8, 64), 0x3000, pattern)
        assert combined > bimodal

    def test_matches_bimodal_on_biased_branch(self):
        combined = CombinedPredictor(64, 1024, 8, 64)
        assert train(combined, 0x3000, [True] * 100) > 0.9

    def test_paper_configuration_sizes(self):
        predictor = CombinedPredictor()
        assert len(predictor.gshare) == 64 * 1024
        assert len(predictor.bimodal) == 2048
        assert len(predictor.chooser) == 1024

    def test_accuracy_on_mixed_random_biased(self):
        rng = random.Random(42)
        predictor = CombinedPredictor(64, 4096, 8, 256)
        correct = total = 0
        for i in range(2000):
            pc = 0x4000 + 4 * (i % 16)
            bias = (pc >> 2) % 4 != 0      # 12 biased, 4 random branches
            taken = bias if (pc >> 2) % 4 else rng.random() < 0.5
            if predictor.predict(pc) == taken:
                correct += 1
            predictor.update(pc, taken)
            total += 1
        assert correct / total > 0.7


@settings(max_examples=60, deadline=None)
@given(branches=st.lists(st.tuples(st.sampled_from(
    [0x40, 0x44, 0x48, 0x1040, 0x2000]), st.booleans()), max_size=300),
    sizes=st.sampled_from([(2, 4, 2, 2), (4, 16, 3, 8), (64, 1024, 8, 64)]))
def test_fetch_and_warming_match_reference(branches, sizes):
    """``predict`` gives the reference's direction before every
    branch; ``update`` (fetch) and ``trainer`` (warming) both leave the
    reference's tables and history, and ``update`` counts what the
    reference's ``predict`` missed."""
    fetched, warmed = CombinedPredictor(*sizes), CombinedPredictor(*sizes)
    reference = ReferenceCombined(*sizes)
    trainers = {}
    missed = 0
    for pc, taken in branches:
        expected = reference.predict(pc)
        assert fetched.predict(pc) == warmed.predict(pc) == expected
        missed += expected != taken
        reference.update(pc, taken)
        fetched.update(pc, taken)
        if pc not in trainers:
            trainers[pc] = warmed.trainer(pc)
        trainers[pc](taken)
    for predictor in (fetched, warmed):
        assert (predictor.chooser, predictor.gshare, predictor.bimodal,
                predictor.history) == reference.tables()
    assert fetched.stats.lookups == len(branches)
    assert fetched.stats.mispredictions == missed
    assert warmed.stats.lookups == 0


class TestTaken:
    def test_always_taken(self):
        predictor = TakenPredictor()
        assert predictor.predict(0x100) is True
        predictor.update(0x100, False)
        assert predictor.stats.mispredictions == 1
