"""Order statistics used to report and compare timings."""

from __future__ import annotations

import statistics
from typing import Sequence, Tuple

#: Percentiles a tail timing may be reported at, lowest first.
PERCENTILE_LADDER = (50, 75, 80, 90, 95, 99)

#: Samples that must lie beyond a reported tail percentile.
TAIL_SAMPLES = 10


def tail_percentile(n_samples: int) -> float:
    """The highest ladder percentile with at least ten samples beyond it.

    Falls back to the median when even it has fewer than ten samples
    beyond it: a tail cannot be estimated from so few.
    """
    best = PERCENTILE_LADDER[0]
    for p in PERCENTILE_LADDER:
        if n_samples * (100 - p) / 100 >= TAIL_SAMPLES:
            best = p
    return best


def percentile(values: Sequence[float], p: float) -> float:
    """The *p*-th percentile by linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_iqr(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0
