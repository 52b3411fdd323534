"""Spans recorded around the benchmark's calls into each layer.

A span has a name (the layer and call, such as ``core.simulate``), a
start and an end on the ``perf_counter`` clock, the span open around it
(its parent) and a run id naming the workload cell it belongs to.
Spans stay in memory and are written once, when the traced run ends.

A span's self time is its duration minus the part of that interval its
child spans cover; summed per name it says where a run's time went.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: str

    @property
    def seconds(self) -> float:
        return self.end - self.start


def covered(interval: Tuple[float, float],
            parts: List[Tuple[float, float]]) -> float:
    """Length of the union of *parts*, clipped to *interval*."""
    reach, hi = interval
    total = 0.0
    for start, end in sorted(parts):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class SpanRecorder:
    """Collects nested spans of one thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, run_id: str = "") -> Iterator[Span]:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = Span(name, time.perf_counter(), 0.0, parent, run_id)
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def self_seconds(self) -> List[float]:
        """Each span's self time, in recording order."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(
                    (span.start, span.end))
        return [span.seconds - covered((span.start, span.end),
                                       children.get(index, []))
                for index, span in enumerate(self.spans)]

    def self_time_by_name(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for span, seconds in zip(self.spans, self.self_seconds()):
            totals[span.name] = totals.get(span.name, 0.0) + seconds
        return totals

    def to_dict(self) -> dict:
        return {"spans": [asdict(span) for span in self.spans],
                "self_seconds_by_name": self.self_time_by_name()}


class NullRecorder:
    """Stands in for :class:`SpanRecorder` when tracing is off."""

    def span(self, name: str, run_id: str = ""):
        return contextlib.nullcontext()
