"""Tests for the branch target buffer and its fetch integration."""

import pytest

from repro.core import make_config, simulate
from repro.frontend import BranchTargetBuffer, FetchEngine
from repro.workloads import workload_trace

from ..conftest import TakenPredictor, make_dyn, pop_fetched


class TestBTBTable:
    def test_miss_then_hit(self):
        btb = BranchTargetBuffer(64)
        assert btb.lookup(0x1000) is None
        btb.update(0x1000, 0x2000)
        assert btb.lookup(0x1000) == 0x2000
        assert btb.misses == 1 and btb.lookups == 2

    def test_tag_check_rejects_aliases(self):
        btb = BranchTargetBuffer(16)
        btb.update(0x1000, 0x2000)
        aliased = 0x1000 + 16 * 4   # same index, different tag
        assert btb.lookup(aliased) is None

    def test_stale_target_replaced(self):
        btb = BranchTargetBuffer(16)
        btb.update(0x1000, 0x2000)
        btb.update(0x1000, 0x3000)
        assert btb.lookup(0x1000) == 0x3000

    def test_power_of_two_enforced(self):
        with pytest.raises(ValueError):
            BranchTargetBuffer(100)

    def test_miss_rate(self):
        btb = BranchTargetBuffer(16)
        btb.lookup(0x1000)
        btb.update(0x1000, 4)
        btb.lookup(0x1000)
        assert btb.miss_rate == 0.5


class TestFetchWithBTB:
    @staticmethod
    def loop_trace(iters=6):
        trace = []
        seq = 0
        for _ in range(iters):
            trace.append(make_dyn(seq, 0x1000, op="li", dest=1,
                                  result=0))
            seq += 1
            trace.append(make_dyn(seq, 0x1004, op="bne", srcs=(1, 2),
                                  taken=True, target=0x1000))
            seq += 1
        return trace

    @staticmethod
    def drain(engine, max_cycles=300):
        delivered = []
        for cycle in range(max_cycles):
            for fetched in pop_fetched(engine, cycle, 100):
                delivered.append(fetched)
                engine.branch_resolved(fetched.dyn.seq, cycle)
            engine.tick(cycle)
            if engine.done:
                delivered.extend(pop_fetched(engine, cycle + 1, 100))
                break
        return delivered

    def test_first_taken_branch_stalls_then_trains(self):
        btb = BranchTargetBuffer(64)
        engine = FetchEngine(iter(self.loop_trace()), lambda pc: 1,
                             TakenPredictor(), width=8, btb=btb)
        delivered = self.drain(engine)
        flagged = [f for f in delivered if f.mispredicted]
        # Only the first encounter misses the BTB; later ones hit.
        assert len(flagged) == 1
        assert flagged[0].dyn.seq == 1

    def test_no_btb_means_perfect_targets(self):
        engine = FetchEngine(iter(self.loop_trace()), lambda pc: 1,
                             TakenPredictor(), width=8, btb=None)
        delivered = self.drain(engine)
        assert not any(f.mispredicted for f in delivered)


class TestEndToEnd:
    def test_btb_costs_ipc_vs_perfect_targets(self):
        trace = workload_trace("cjpeg", 5000)
        perfect = simulate(list(trace), make_config(4))
        realistic = simulate(list(trace), make_config(4, btb_entries=2048))
        assert realistic.stats.committed_insts == len(trace)
        assert realistic.ipc <= perfect.ipc
        assert 0 < realistic.bp_stats["btb_miss_rate"] < 0.5

    def test_btb_entries_validated_via_config(self):
        with pytest.raises(ValueError):
            simulate(workload_trace("rawcaudio", 200),
                     make_config(2, btb_entries=100))
