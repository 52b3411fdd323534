"""compare.py's pair, tie and unresolved rules."""

from compare import classify

PARENT = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]


def test_gain_needs_ten_pairs_nine_wins_and_a_gap_beyond_the_iqr():
    change = [value * 0.9 for value in PARENT]
    assert classify(PARENT, change, "lower", 0.1) == "better"
    assert classify(PARENT[:9], change[:9], "lower", 0.1) == "same"


def test_ties_count_for_neither_side():
    change = [value * 0.9 for value in PARENT]
    change[0] = PARENT[0]             # a tie
    assert classify(PARENT, change, "lower", 0.1) == "better"
    change[1] = PARENT[1]             # two ties: 8 wins in 10 pairs
    assert classify(PARENT, change, "lower", 0.1) == "same"


def test_small_gap_inside_the_parent_spread_is_no_gain():
    change = [value - 0.01 for value in PARENT]
    assert classify(PARENT, change, "lower", 0.1) == "same"


def test_direction_follows_better():
    change = [value * 1.1 for value in PARENT]
    assert classify(PARENT, change, "higher", 0.2) == "better"
    assert classify(PARENT, change, "lower", 0.05) == "worse"


def test_worsening_beyond_the_bound_is_worse():
    change = [value * 1.2 for value in PARENT]
    assert classify(PARENT, change, "lower", 0.1) == "worse"
    assert classify(PARENT, change, "higher", 0.1) == "better"


def test_worsening_inside_a_bound_narrower_than_the_spread_is_unresolved():
    noisy = [8.0, 12.0, 9.0, 11.0, 10.0, 8.5, 11.5, 10.0, 9.5, 10.5]
    change = [value * 1.03 for value in noisy]
    assert classify(noisy, change, "lower", 0.1) == "unresolved"
    assert classify(PARENT, [v * 1.03 for v in PARENT], "lower",
                    0.1) == "same"


def test_wide_spread_is_resolved_when_every_change_run_is_better():
    parent = [10.0, 14.0, 11.0, 13.0]
    change = [9.0, 8.0, 9.5, 8.5]
    assert classify(parent, change, "lower", 0.05) == "same"
