"""Rule-by-rule unit tests for the Baseline steering heuristic (§3.1)."""

from repro.steering import BaselineSteerer, DCountTracker, SourceView


def src(available=True, mapped=(0,), soonest=None, predicted=False):
    mapped = frozenset(mapped)
    if soonest is None and mapped:
        soonest = min(mapped)
    return SourceView(available, mapped, soonest, predicted)


def fresh(n=4, threshold=None):
    return BaselineSteerer(n, threshold), DCountTracker(n)


class TestRule1Balance:
    def test_imbalance_above_threshold_overrides_everything(self):
        steerer, dcount = fresh(4, threshold=4)
        for _ in range(3):
            dcount.dispatch(0)    # counter0 = 9 > 4
        # Operand strongly prefers cluster 0, but balance wins.
        chosen = steerer.choose([src(mapped=(0,))], dcount)
        assert chosen != 0
        assert chosen == dcount.least_loaded()

    def test_below_threshold_follows_operands(self):
        steerer, dcount = fresh(4, threshold=100)
        for _ in range(3):
            dcount.dispatch(0)
        assert steerer.choose([src(mapped=(0,))], dcount) == 0

    def test_paper_default_thresholds(self):
        assert BaselineSteerer(4).balance_threshold == 32
        assert BaselineSteerer(2).balance_threshold == 16


class TestRule21Pending:
    def test_pending_operand_steers_to_producer_cluster(self):
        steerer, dcount = fresh()
        views = [src(available=False, mapped=(2,), soonest=2)]
        assert steerer.choose(views, dcount) == 2

    def test_pending_beats_available_mappings(self):
        steerer, dcount = fresh()
        views = [src(available=True, mapped=(0, 1, 3)),
                 src(available=False, mapped=(2,), soonest=2)]
        assert steerer.choose(views, dcount) == 2

    def test_two_pending_in_different_clusters_tie_broken_by_load(self):
        steerer, dcount = fresh()
        dcount.dispatch(1)   # make cluster 1 more loaded
        views = [src(available=False, mapped=(1,), soonest=1),
                 src(available=False, mapped=(3,), soonest=3)]
        assert steerer.choose(views, dcount) == 3

    def test_majority_of_pending_operands_wins(self):
        steerer, dcount = fresh()
        views = [src(available=False, mapped=(1,), soonest=1),
                 src(available=False, mapped=(1,), soonest=1)]
        assert steerer.choose(views, dcount) == 1

    def test_soonest_cluster_narrows_replicated_pending(self):
        # Pending in clusters 0 and 2 (replica in flight), value lands
        # sooner in 2: rule 2.1 votes for 2 only.
        steerer, dcount = fresh()
        views = [src(available=False, mapped=(0, 2), soonest=2)]
        assert steerer.choose(views, dcount) == 2


class TestRule22Mapped:
    def test_most_mapped_cluster_wins(self):
        steerer, dcount = fresh()
        views = [src(mapped=(1,)), src(mapped=(1, 2))]
        assert steerer.choose(views, dcount) == 1

    def test_tie_between_mapped_clusters_broken_by_load(self):
        steerer, dcount = fresh()
        dcount.dispatch(1)
        views = [src(mapped=(1,)), src(mapped=(2,))]
        assert steerer.choose(views, dcount) == 2


class TestRule23NoSources:
    def test_no_sources_goes_least_loaded(self):
        steerer, dcount = fresh()
        dcount.dispatch(0)
        dcount.dispatch(1)
        chosen = steerer.choose([], dcount)
        assert chosen in (2, 3)
        assert chosen == dcount.least_loaded()

    def test_zero_register_only_counts_as_unconstrained(self):
        steerer, dcount = fresh()
        dcount.dispatch(0)
        views = [SourceView(True, frozenset(), None, False)]
        assert steerer.choose(views, dcount) == dcount.least_loaded()


class TestSingleCluster:
    def test_one_cluster_always_zero(self):
        steerer = BaselineSteerer(1)
        dcount = DCountTracker(1)
        assert steerer.choose([src(mapped=(0,))], dcount) == 0
        assert steerer.choose([], dcount) == 0


class TestPredictionIgnored:
    def test_baseline_ignores_predicted_flag(self):
        steerer, dcount = fresh()
        views_pred = [src(available=False, mapped=(2,), soonest=2,
                          predicted=True)]
        views_nopred = [src(available=False, mapped=(2,), soonest=2,
                            predicted=False)]
        assert (steerer.choose(views_pred, dcount)
                == steerer.choose(views_nopred, dcount) == 2)
