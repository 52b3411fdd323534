"""Span self-time arithmetic."""

import pytest

from spans import Span, SpanRecorder, covered


def recorder_with(spans):
    recorder = SpanRecorder()
    recorder.spans = [Span(name, start, end, parent, "")
                      for name, start, end, parent in spans]
    return recorder


def test_covered_merges_overlaps_and_clips_to_the_interval():
    assert covered((0, 10), []) == 0
    assert covered((0, 10), [(1, 3), (2, 5), (7, 8)]) == 5
    assert covered((0, 10), [(-5, 2), (9, 20)]) == 3
    assert covered((0, 10), [(11, 12)]) == 0


def test_self_time_subtracts_only_direct_children():
    recorder = recorder_with([
        ("root", 0.0, 10.0, None),
        ("child", 1.0, 4.0, 0),
        ("grandchild", 2.0, 3.0, 1),
        ("child", 6.0, 7.0, 0),
    ])
    assert recorder.self_seconds() == pytest.approx([6.0, 2.0, 1.0, 1.0])
    assert recorder.self_time_by_name() == pytest.approx(
        {"root": 6.0, "child": 3.0, "grandchild": 1.0})


def test_overlapping_children_are_not_subtracted_twice():
    recorder = recorder_with([
        ("root", 0.0, 10.0, None),
        ("a", 2.0, 6.0, 0),
        ("b", 4.0, 8.0, 0),
    ])
    assert recorder.self_seconds()[0] == pytest.approx(4.0)


def test_recorded_spans_nest_and_sum_to_the_root():
    recorder = SpanRecorder()
    with recorder.span("outer", "w"):
        with recorder.span("inner", "w/cell"):
            pass
        with recorder.span("inner", "w/cell"):
            pass
    assert [span.parent for span in recorder.spans] == [None, 0, 0]
    assert [span.run_id for span in recorder.spans] == ["w", "w/cell",
                                                        "w/cell"]
    assert sum(recorder.self_seconds()) == pytest.approx(
        recorder.spans[0].seconds)
