"""Unit tests for the fetch engine (width, stalls, branch handling)."""

from repro.core import make_config, simulate
from repro.core.uop import KIND_INST
from repro.frontend import CombinedPredictor, FetchEngine
from repro.obs import EventTracer, RingBufferSink
from repro.obs.events import EV_DISPATCH
from repro.workloads import workload_trace

from ..conftest import TakenPredictor, linear_trace, make_dyn, pop_fetched


def always_hit(pc):
    return 1


class RecordingICache:
    """I-cache stub with scripted per-line latencies."""

    def __init__(self, latencies=None):
        self.latencies = latencies or {}
        self.accesses = []

    def __call__(self, pc):
        self.accesses.append(pc)
        return self.latencies.get(pc >> 5, 1)


def drain(engine, max_cycles=200):
    """Run fetch/decode cycles; returns list of decoded DynInsts."""
    decoded = []
    for cycle in range(max_cycles):
        decoded.extend(f.dyn for f in pop_fetched(engine, cycle, 100))
        engine.tick(cycle)
        if engine.done:
            break
    # final drain
    decoded.extend(f.dyn for f in pop_fetched(engine, max_cycles + 1, 100))
    return decoded


class TestWidthAndBuffering:
    def test_fetches_at_most_width_per_cycle(self):
        engine = FetchEngine(iter(linear_trace(20)), always_hit,
                             TakenPredictor(), width=8, buffer_capacity=64)
        assert engine.tick(0) == 8
        assert engine.tick(1) == 8
        assert engine.tick(2) == 4

    def test_buffer_capacity_backpressures(self):
        engine = FetchEngine(iter(linear_trace(32)), always_hit,
                             TakenPredictor(), width=8, buffer_capacity=8)
        assert engine.tick(0) == 8
        assert engine.tick(1) == 0         # buffer full, nothing drained
        pop_fetched(engine, 2, 4)
        assert engine.tick(2) == 4

    def test_one_cycle_fetch_to_decode_gap(self):
        # Read from a real run's dispatch events, which carry each
        # instruction's fetch cycle: decode never takes an instruction
        # in the cycle it was fetched.
        sink = RingBufferSink(capacity=1 << 16)
        trace = workload_trace("rawcaudio", 2_000)
        simulate(trace, make_config(2, predictor="stride", steering="vpb"),
                 tracer=EventTracer(sink))
        dispatches = [(ev[0], ev[8]) for ev in sink.events
                      if ev[1] == EV_DISPATCH and ev[3] == KIND_INST]
        assert len(dispatches) == len(trace)
        assert all(cycle > fetch_cycle for cycle, fetch_cycle in dispatches)
        assert any(cycle == fetch_cycle + 1
                   for cycle, fetch_cycle in dispatches)

    def test_all_instructions_eventually_decoded_in_order(self):
        trace = linear_trace(50)
        engine = FetchEngine(iter(trace), always_hit, TakenPredictor(),
                             width=4, buffer_capacity=6)
        decoded = drain(engine)
        assert [d.seq for d in decoded] == list(range(50))

    def test_done_semantics(self):
        engine = FetchEngine(iter(linear_trace(2)), always_hit,
                             TakenPredictor(), width=8)
        assert not engine.done
        engine.tick(0)
        assert engine.fetched_count == 2 and not engine.done
        pop_fetched(engine, 1, 8)
        assert engine.done


class TestICacheStalls:
    def test_miss_stalls_until_fill(self):
        icache = RecordingICache({(0x1000 >> 5): 7})
        engine = FetchEngine(iter(linear_trace(4)), icache,
                             TakenPredictor(), width=8)
        assert engine.tick(0) == 0          # miss detected, stall
        assert engine.tick(3) == 0          # still stalled
        assert engine.tick(7) == 4          # line arrived
        assert engine.icache_stall_cycles == 1

    def test_new_line_triggers_new_lookup(self):
        icache = RecordingICache()
        # 16 instructions cross a 32-byte line boundary once.
        engine = FetchEngine(iter(linear_trace(16)), icache,
                             TakenPredictor(), width=8)
        engine.tick(0)
        engine.tick(1)
        assert len(icache.accesses) == 2


class TestBranchHandling:
    @staticmethod
    def trace_with_branch(taken=True, mispredict_predictor=None):
        return [
            make_dyn(0, 0x1000, op="li", dest=1, result=0),
            make_dyn(1, 0x1004, op="beq", srcs=(1, 2), taken=taken,
                     target=0x1000),
            make_dyn(2, 0x1008 if not taken else 0x1000, op="li", dest=2,
                     result=0),
        ]

    def test_correct_prediction_does_not_stall(self):
        engine = FetchEngine(iter(self.trace_with_branch(taken=True)),
                             always_hit, TakenPredictor(), width=8)
        assert engine.tick(0) == 3

    def test_misprediction_stops_fetch_until_resolved(self):
        engine = FetchEngine(iter(self.trace_with_branch(taken=False)),
                             always_hit, TakenPredictor(), width=8)
        assert engine.tick(0) == 2          # stops after the branch
        fetched = pop_fetched(engine, 1, 8)
        assert fetched[-1].mispredicted
        assert engine.tick(1) == 0          # waiting on resolution
        engine.branch_resolved(seq=1, cycle=5)
        assert engine.tick(5) == 0          # +1 redirect cycle
        assert engine.tick(6) == 1
        assert engine.branch_stall_cycles >= 1

    def test_resolution_of_other_branch_ignored(self):
        engine = FetchEngine(iter(self.trace_with_branch(taken=False)),
                             always_hit, TakenPredictor(), width=8)
        engine.tick(0)
        engine.branch_resolved(seq=99, cycle=3)
        assert engine.tick(4) == 0

    def test_predictor_trained_at_fetch(self):
        predictor = CombinedPredictor(64, 64, 4, 64)
        trace = [make_dyn(i, 0x1000, op="bne", srcs=(1, 2), taken=True,
                          target=0x1000) for i in range(6)]
        engine = FetchEngine(iter(trace), always_hit, predictor, width=1,
                             buffer_capacity=64)
        for cycle in range(20):
            pop_fetched(engine, cycle, 8)
            engine.tick(cycle)
            engine.branch_resolved(cycle, cycle)  # resolve eagerly
            if engine.fetched_count == len(trace):
                break
        assert predictor.stats.lookups > 0

    def test_unconditional_jump_never_stalls(self):
        trace = [make_dyn(0, 0x1000, op="j", taken=True, target=0x2000),
                 make_dyn(1, 0x2000, op="li", dest=1, result=0)]
        engine = FetchEngine(iter(trace), always_hit, TakenPredictor(),
                             width=8)
        assert engine.tick(0) == 2
