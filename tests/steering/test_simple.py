"""Unit tests for the reference steerers (round-robin, balance, depend)."""

from repro.steering import (BalanceOnlySteerer, DCountTracker,
                            DependenceOnlySteerer, RoundRobinSteerer)

from .test_baseline import src


def test_round_robin_cycles():
    steerer = RoundRobinSteerer(3)
    dcount = DCountTracker(3)
    picks = []
    for _ in range(7):
        cluster = steerer.choose([], dcount)
        picks.append(cluster)
        dcount.dispatch(cluster)
    assert picks == [0, 1, 2, 0, 1, 2, 0]


def test_round_robin_retries_do_not_advance():
    steerer = RoundRobinSteerer(3)
    dcount = DCountTracker(3)
    # choose() called repeatedly (decode retries) stays put...
    assert [steerer.choose([], dcount) for _ in range(3)] == [0, 0, 0]
    dcount.dispatch(0)
    # ...and only the dispatch advances the cursor.
    assert steerer.choose([], dcount) == 1


def test_balance_only_tracks_least_loaded():
    steerer = BalanceOnlySteerer(4)
    dcount = DCountTracker(4)
    views = [src(mapped=(0,))]
    assert steerer.choose(views, dcount) == 0   # tie -> lowest id
    dcount.dispatch(0)
    assert steerer.choose(views, dcount) != 0


class TestDependenceOnly:
    def test_follows_pending_producer(self):
        steerer = DependenceOnlySteerer(4)
        dcount = DCountTracker(4)
        views = [src(available=False, mapped=(2,), soonest=2)]
        assert steerer.choose(views, dcount) == 2

    def test_follows_mapped_majority(self):
        steerer = DependenceOnlySteerer(4)
        dcount = DCountTracker(4)
        views = [src(mapped=(1, 3)), src(mapped=(3,))]
        assert steerer.choose(views, dcount) == 3

    def test_ignores_load_defaults_to_zero(self):
        steerer = DependenceOnlySteerer(4)
        dcount = DCountTracker(4)
        for _ in range(100):
            dcount.dispatch(0)   # massively imbalanced toward 0
        assert steerer.choose([], dcount) == 0   # still concentrates
