"""Unit tests for the Modified (§3.2) and VPB (§3.3) steering schemes."""

from repro.steering import (DCountTracker, ModifiedSteerer, SourceView,
                            VPBSteerer, default_vpb_threshold)

from .test_baseline import src


class TestMod1AvailableIfPredicted:
    def test_predicted_pending_operand_does_not_anchor(self):
        """Mod 1: predicted operands count as available, so rule 2.1 is
        not applied for them (§3.2 first modification)."""
        steerer = VPBSteerer(4)
        dcount = DCountTracker(4)
        views = [src(available=False, mapped=(2,), soonest=2,
                     predicted=True),
                 src(available=True, mapped=(1,))]
        # Without mod 1 this would go to 2 (pending); with it, rule 2.2
        # sees two available operands mapped in 2 and 1 -> tie by load.
        chosen = steerer.choose(views, dcount)
        assert chosen in (1, 2)
        dcount2 = DCountTracker(4)
        dcount2.dispatch(2)
        assert steerer.choose(views, dcount2) == 1

    def test_unpredicted_pending_still_anchors(self):
        steerer = VPBSteerer(4)
        dcount = DCountTracker(4)
        views = [src(available=False, mapped=(2,), soonest=2,
                     predicted=False)]
        assert steerer.choose(views, dcount) == 2


class TestMod2Gate:
    def _views(self):
        return [src(available=True, mapped=(3,), predicted=True)]

    def test_gate_closed_when_balanced(self):
        """Below the VPB threshold, predicted operands still constrain
        steering (avoid gratuitous communication risk, §3.3)."""
        steerer = VPBSteerer(4, vpb_threshold=8)
        dcount = DCountTracker(4)
        dcount.dispatch(0)   # imbalance 3 < 8
        assert steerer.choose(self._views(), dcount) == 3

    def test_gate_open_when_imbalanced(self):
        steerer = VPBSteerer(4, vpb_threshold=8)
        dcount = DCountTracker(4)
        for _ in range(3):
            dcount.dispatch(3)   # imbalance 9 > 8; cluster 3 loaded
        chosen = steerer.choose(self._views(), dcount)
        assert chosen != 3       # operand released; balance decides

    def test_gate_never_applies_to_unpredicted(self):
        steerer = VPBSteerer(4, vpb_threshold=8)
        dcount = DCountTracker(4)
        for _ in range(3):
            dcount.dispatch(3)
        views = [src(available=True, mapped=(3,), predicted=False)]
        assert steerer.choose(views, dcount) == 3

    def test_rule1_still_dominates(self):
        steerer = VPBSteerer(4, balance_threshold=4, vpb_threshold=2)
        dcount = DCountTracker(4)
        for _ in range(3):
            dcount.dispatch(0)   # imbalance 9 > 4
        assert steerer.choose(self._views(), dcount) == dcount.least_loaded()

    def test_paper_default_thresholds(self):
        assert default_vpb_threshold(4) == 16
        assert default_vpb_threshold(2) == 8
        assert VPBSteerer(4).mod2_threshold == 16
        assert VPBSteerer(2).mod2_threshold == 8


class TestModifiedScheme:
    def test_mod2_unconditional(self):
        """§3.2: the Modified scheme applies mod 2 with no gate."""
        steerer = ModifiedSteerer(4)
        dcount = DCountTracker(4)   # perfectly balanced
        views = [src(available=True, mapped=(3,), predicted=True)]
        # The operand is released even at imbalance 0: choice is purely
        # least-loaded (cluster 0 by tie-break).
        assert steerer.choose(views, dcount) == 0

    def test_fp_operands_never_predicted_still_constrain(self):
        steerer = ModifiedSteerer(4)
        dcount = DCountTracker(4)
        # Steering sees an fp operand as one with no prediction.
        views = [src(available=True, mapped=(2,), predicted=False)]
        assert steerer.choose(views, dcount) == 2


class TestMixedOperands:
    def test_predicted_and_unpredicted_mix(self):
        """Only the unpredicted operand constrains when the gate is open."""
        steerer = VPBSteerer(4, vpb_threshold=2)
        dcount = DCountTracker(4)
        dcount.dispatch(1)   # imbalance 3 > 2, cluster 1 most loaded
        views = [src(available=True, mapped=(1,), predicted=True),
                 src(available=True, mapped=(2,), predicted=False)]
        assert steerer.choose(views, dcount) == 2
