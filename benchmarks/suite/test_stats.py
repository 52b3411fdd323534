"""The percentile rule and order statistics."""

import statistics

import pytest

from stats import percentile, quartiles, relative_iqr, tail_percentile


@pytest.mark.parametrize("n, expected", [
    (1, 50), (19, 50), (20, 50), (39, 50), (40, 75), (49, 75), (50, 80),
    (64, 80), (99, 80), (100, 90), (199, 90), (200, 95), (270, 95),
    (999, 95), (1000, 99), (10_000, 99),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == 2.5
    assert percentile(values, 75) == pytest.approx(3.25)
    assert percentile([7.0], 95) == 7.0


def test_quartiles_match_the_statistics_module():
    values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert quartiles([2.0]) == (2.0, 2.0, 2.0)
    q1, q2, q3 = quartiles(values)
    assert relative_iqr(values) == pytest.approx((q3 - q1) / q2)
