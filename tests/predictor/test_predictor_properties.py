"""Property-based tests of the stride predictor's invariants, and of
every value predictor's call forms against its test-only reference
(``reference_predictors``)."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.predictor import (ContextPredictor, HybridPredictor,
                             PerfectPredictor, StridePredictor,
                             ValuePredictor, ValuePredictorStats)

from .reference_predictors import (_EDGE, ReferenceContext,
                                   ReferenceHybrid, ReferencePerfect,
                                   ReferenceStride, _wrap, stride_entry)

int64 = st.integers(min_value=-(1 << 62), max_value=(1 << 62) - 1)


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
    predict = StridePredictor(256).bind(0x40, 0)
    value = start
    for _ in range(warmup):
        predict(value)
        value += stride
    assert predict(value) == (value, True)


@settings(max_examples=50)
@given(values=st.lists(int64, min_size=1, max_size=60))
def test_counter_stays_in_2bit_range(values):
    predictor = StridePredictor(64)
    predict = predictor.bind(0x40, 1)
    for value in values:
        predict(value)
        _, _, _, counter = stride_entry(predictor, 0x40, 1)
        assert 0 <= counter <= 3


@settings(max_examples=50)
@given(values=st.lists(int64, min_size=1, max_size=40))
def test_stats_consistency(values):
    predictor = StridePredictor(64)
    predict = predictor.bind(0x80, 0)
    for value in values:
        predict(value)
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
    train = predictor.trainer(0x100, 0)
    for value in values:
        train(value)
    predictor.settle()
    last, _, _, _ = stride_entry(predictor, 0x100, 0)
    assert last == values[-1]


@settings(max_examples=30, deadline=None)
@given(pcs=st.lists(st.integers(min_value=0, max_value=1 << 16).map(
    lambda x: x << 2), min_size=2, max_size=8, unique=True))
def test_large_table_no_interference(pcs):
    """Distinct PCs in a big table never share an entry."""
    predictor = StridePredictor(1 << 18)
    for i, pc in enumerate(pcs):
        train = predictor.trainer(pc, 0)
        for k in range(4):
            train(i * 1000 + k)
    predictor.settle()
    for i, pc in enumerate(pcs):
        last, stride, _, _ = stride_entry(predictor, pc, 0)
        assert last == i * 1000 + 3
        assert stride == 1


def _state(obj, stats=True):
    """Every table and counter of a predictor, nested ones included;
    without *stats*, the tables alone.  Values a stride predictor has
    queued and not yet trained count; its empty queues do not."""
    if isinstance(obj, ValuePredictorStats):
        return (obj.lookups, obj.confident, obj.confident_correct) \
            if stats else None
    if isinstance(obj, ValuePredictor):
        state = {name: _state(value, stats)
                 for name, value in vars(obj).items()}
        if "_queues" in state:
            state["_queues"] = {index: queue for index, queue
                                in state["_queues"].items() if queue}
        return state
    return obj


def _check_call_forms(make, reference, runs):
    """``bind(pc, slot)(v)`` and ``predict_update`` return what the
    reference's ``predict`` returns and leave the state its ``predict``
    then ``update`` leave; ``trainer(pc, slot)(v)``, unless the
    predictor has nothing to learn, leaves the same tables once
    ``settle()`` has run, and records nothing."""
    bound, fused, split, trained = make(), make(), reference(), make()
    learns = trained.trainer is not None
    calls, trainers = {}, {}
    for pc, slot, values in runs:
        for actual in values:
            predict = calls.get((pc, slot))
            if predict is None:
                predict = calls[(pc, slot)] = bound.bind(pc, slot)
                if learns:
                    trainers[(pc, slot)] = trained.trainer(pc, slot)
            got = predict(actual)
            assert got == fused.predict_update(pc, slot, actual)
            assert got == split.predict(pc, slot, actual)
            split.update(pc, slot, actual)
            if learns:
                trainers[(pc, slot)](actual)
    trained.settle()
    assert _state(bound) == _state(fused) == _state(split)
    assert _state(trained, stats=False) == _state(split, stats=False)
    assert trained.stats.lookups == 0


@settings(max_examples=80, deadline=None)
@given(runs=_runs, two_delta=st.booleans())
def test_bound_stride_matches_fused_and_split(runs, two_delta):
    """Two entries: the slots of every pc alias onto them."""
    _check_call_forms(lambda: StridePredictor(2, two_delta=two_delta),
                      lambda: ReferenceStride(2, two_delta=two_delta),
                      runs)


def _seed(predictor, pc, slot, record):
    """Make the stride record *(pc, slot)* indexes hold *record*."""
    predictor._records.setdefault(predictor._index(pc, slot),
                                  [0, 0, 0, 0])[:] = record


_any64 = st.integers(-_EDGE, _EDGE - 1)
_near_edge = st.one_of(st.integers(_EDGE - 40, _EDGE - 1),
                       st.integers(-_EDGE, -_EDGE + 40))


@st.composite
def _queued(draw):
    """0-12 values for one queue: arbitrary 64-bit values, often ending
    in an equally spaced run of 4-6 whose steps may wrap."""
    values = draw(st.lists(st.one_of(_any64, _near_edge), max_size=12))
    if draw(st.booleans()):
        n = draw(st.integers(4, 6))
        start = draw(st.one_of(_near_edge, int64))
        step = draw(st.one_of(st.integers(-16, 16), _any64))
        values = values[:12 - n] + [_wrap(start + k * step)
                                    for k in range(n)]
    return values


@settings(max_examples=300, deadline=None)
@given(record=st.tuples(_any64, _any64, _any64, st.integers(0, 3)),
       values=_queued(), two_delta=st.booleans())
# An equally spaced tail against a saturated record of another stride,
# a tail whose steps wrap at 2**63, and a tail one value short.
@example(record=(7, 3, 3, 3), values=[1, 9, 2, 6, 10, 14, 18],
         two_delta=True)
@example(record=(0, 0, 0, 0), values=[_EDGE - 8, _EDGE - 4, -_EDGE,
                                      -_EDGE + 4, -_EDGE + 8],
         two_delta=False)
@example(record=(5, -1, 2, 1), values=[6, 7, 8, 9], two_delta=True)
# Register values beyond 64 bits, which an li of a wide immediate
# leaves: equally spaced, but each delta wraps.
@example(record=(0, 0, 0, 0), values=[k << 63 for k in range(5)],
         two_delta=True)
def test_bulk_training_matches_the_reference(record, values, two_delta):
    """``settle()`` trains a queue into the record that training the
    reference per value leaves, from any record."""
    bulk = StridePredictor(64, two_delta=two_delta)
    reference = ReferenceStride(64, two_delta=two_delta)
    queue = bulk.trainer(0x44, 1)
    _seed(bulk, 0x44, 1, record)
    _seed(reference, 0x44, 1, record)
    for value in values:
        queue(value)
        reference.update(0x44, 1, value)
    bulk.settle()
    assert stride_entry(bulk, 0x44, 1) == stride_entry(reference, 0x44, 1)
    assert _state(bulk) == _state(reference)


@pytest.mark.parametrize("make, reference", [
    (lambda: ContextPredictor(l1_entries=2, l2_entries=2),
     lambda: ReferenceContext(l1_entries=2, l2_entries=2)),
    (lambda: HybridPredictor(stride_entries=2, context_l1=2, context_l2=2,
                             chooser_entries=2),
     lambda: ReferenceHybrid(stride_entries=2, context_l1=2, context_l2=2,
                             chooser_entries=2)),
    (PerfectPredictor, ReferencePerfect),
], ids=["context", "hybrid", "perfect"])
@settings(max_examples=30, deadline=None)
@given(runs=_runs)
def test_default_binding_matches_fused_and_split(make, reference, runs):
    """The other predictors' call forms against their references."""
    _check_call_forms(make, reference, runs)
