"""Property-based tests of the stride predictor's invariants, and of
the three equivalent call forms of every value predictor."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.predictor import (ContextPredictor, HybridPredictor,
                             PerfectPredictor, StridePredictor,
                             ValuePredictor, ValuePredictorStats)

int64 = st.integers(min_value=-(1 << 62), max_value=(1 << 62) - 1)

_EDGE = 1 << 63


def _wrap(value):
    return (value + _EDGE) % (1 << 64) - _EDGE


#: Runs of operand values for one (pc, slot): strided runs starting
#: within a few strides of +-2**63 (so predictions and strides wrap),
#: or a few arbitrary 64-bit values.
_runs = st.lists(st.tuples(
    st.sampled_from([0x40, 0x44, 0x1000]),
    st.integers(min_value=0, max_value=1),
    st.one_of(
        st.builds(lambda start, step, n: [_wrap(start + k * step)
                                          for k in range(n)],
                  st.one_of(st.integers(_EDGE - 40, _EDGE - 1),
                            st.integers(-_EDGE, -_EDGE + 40), int64),
                  st.integers(min_value=-16, max_value=16),
                  st.integers(min_value=1, max_value=10)),
        st.lists(st.integers(-_EDGE, _EDGE - 1), min_size=1,
                 max_size=3))),
    min_size=1, max_size=8)


@settings(max_examples=50, deadline=None)
@given(start=int64, stride=st.integers(min_value=-(1 << 30),
                                       max_value=1 << 30),
       warmup=st.integers(min_value=5, max_value=12))
def test_constant_stride_always_learned(start, stride, warmup):
    """After >=3 constant-stride observations the prediction is exact."""
    predictor = StridePredictor(256)
    value = start
    for _ in range(warmup):
        predictor.predict(0x40, 0, value)
        predictor.update(0x40, 0, value)
        value += stride
    prediction = predictor.predict(0x40, 0, value)
    assert prediction.confident
    assert prediction.value == value


@settings(max_examples=50)
@given(values=st.lists(int64, min_size=1, max_size=60))
def test_counter_stays_in_2bit_range(values):
    predictor = StridePredictor(64)
    for value in values:
        predictor.predict(0x40, 1, value)
        predictor.update(0x40, 1, value)
        _, _, counter = predictor.entry(0x40, 1)
        assert 0 <= counter <= 3


@settings(max_examples=50)
@given(values=st.lists(int64, min_size=1, max_size=40))
def test_stats_consistency(values):
    predictor = StridePredictor(64)
    for value in values:
        predictor.predict(0x80, 0, value)
        predictor.update(0x80, 0, value)
    stats = predictor.stats
    assert stats.confident <= stats.lookups == len(values)
    assert stats.confident_correct <= stats.confident
    assert 0.0 <= stats.confident_fraction <= 1.0
    assert 0.0 <= stats.hit_ratio <= 1.0


@settings(max_examples=30)
@given(values=st.lists(int64, min_size=1, max_size=30),
       entries=st.sampled_from([2, 16, 256, 4096]))
def test_last_value_always_tracked(values, entries):
    """Whatever happens, the entry's last value is the latest actual."""
    predictor = StridePredictor(entries)
    for value in values:
        predictor.update(0x100, 0, value)
    last, _, _ = predictor.entry(0x100, 0)
    assert last == values[-1]


@settings(max_examples=30, deadline=None)
@given(pcs=st.lists(st.integers(min_value=0, max_value=1 << 16).map(
    lambda x: x << 2), min_size=2, max_size=8, unique=True))
def test_large_table_no_interference(pcs):
    """Distinct PCs in a big table never share an entry."""
    predictor = StridePredictor(1 << 18)
    for i, pc in enumerate(pcs):
        for k in range(4):
            predictor.update(pc, 0, i * 1000 + k)
    for i, pc in enumerate(pcs):
        last, stride, _ = predictor.entry(pc, 0)
        assert last == i * 1000 + 3
        assert stride == 1


def _state(obj):
    """Every table and counter of a predictor, nested ones included."""
    if isinstance(obj, ValuePredictorStats):
        return (obj.lookups, obj.confident, obj.confident_correct)
    if isinstance(obj, ValuePredictor):
        return {name: _state(value) for name, value in vars(obj).items()}
    return obj


def _check_call_forms(make, runs):
    """``bind(pc, slot)(v)``, ``predict_update`` and ``predict`` then
    ``update`` agree on every result and leave the same state."""
    bound, fused, split = make(), make(), make()
    calls = {}
    for pc, slot, values in runs:
        for actual in values:
            predict = calls.get((pc, slot))
            if predict is None:
                predict = calls[(pc, slot)] = bound.bind(pc, slot)
            got = tuple(predict(actual))
            assert got == tuple(fused.predict_update(pc, slot, actual))
            reference = split.predict(pc, slot, actual)
            split.update(pc, slot, actual)
            assert got == (reference.value, reference.confident)
    assert _state(bound) == _state(fused) == _state(split)


@settings(max_examples=80, deadline=None)
@given(runs=_runs, two_delta=st.booleans())
def test_bound_stride_matches_fused_and_split(runs, two_delta):
    """Two entries: the slots of every pc alias onto them."""
    _check_call_forms(lambda: StridePredictor(2, two_delta=two_delta),
                      runs)


@pytest.mark.parametrize("make", [
    lambda: ContextPredictor(l1_entries=2, l2_entries=2),
    lambda: HybridPredictor(stride_entries=2, context_l1=2, context_l2=2,
                            chooser_entries=2),
    PerfectPredictor,
], ids=["context", "hybrid", "perfect"])
@settings(max_examples=30, deadline=None)
@given(runs=_runs)
def test_default_binding_matches_fused_and_split(make, runs):
    _check_call_forms(make, runs)
