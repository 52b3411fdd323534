"""Test-only reference form of the combined branch predictor's rule.

Gshare, bimodal and the chooser as three separate tables of 2-bit
counters, each with its own ``predict`` and ``update``, composed as
McFarling's combining scheme.  Tests hold
:class:`repro.frontend.CombinedPredictor`'s flat ``predict``, ``update``
and ``trainer`` to it.
"""


class _Counters:
    """2-bit saturating counters, initialized weakly taken."""

    def __init__(self, entries):
        self.counters = [2] * entries
        self.mask = entries - 1

    def predict(self, index):
        return self.counters[index & self.mask] >= 2

    def update(self, index, taken):
        index &= self.mask
        step = 1 if taken else -1
        self.counters[index] = min(max(self.counters[index] + step, 0), 3)


class ReferenceCombined:
    def __init__(self, chooser_entries=1024, gshare_entries=64 * 1024,
                 history_bits=16, bimodal_entries=2048):
        self.chooser = _Counters(chooser_entries)
        self.gshare = _Counters(gshare_entries)
        self.bimodal = _Counters(bimodal_entries)
        self.history = 0
        self.history_bits = history_bits

    def predict(self, pc):
        if self.chooser.predict(pc >> 2):
            return self.gshare.predict((pc >> 2) ^ self.history)
        return self.bimodal.predict(pc >> 2)

    def update(self, pc, taken):
        by_gshare = self.gshare.predict((pc >> 2) ^ self.history)
        by_bimodal = self.bimodal.predict(pc >> 2)
        if by_gshare != by_bimodal:
            self.chooser.update(pc >> 2, by_gshare == taken)
        self.gshare.update((pc >> 2) ^ self.history, taken)
        self.bimodal.update(pc >> 2, taken)
        self.history = (self.history * 2 + bool(taken)) \
            % (1 << self.history_bits)

    def tables(self):
        """(chooser, gshare, bimodal, history), as the flat predictor
        keeps them."""
        return (self.chooser.counters, self.gshare.counters,
                self.bimodal.counters, self.history)
