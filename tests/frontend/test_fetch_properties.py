"""Property-based tests: the fetch engine never drops or reorders."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend import FetchEngine

from ..conftest import TakenPredictor, make_dyn, pop_fetched


def build_trace(shape):
    """shape: list of (is_branch, taken) tuples -> DynInst list."""
    trace = []
    pc = 0x1000
    for seq, (is_branch, taken) in enumerate(shape):
        if is_branch:
            trace.append(make_dyn(seq, pc, op="beq", srcs=(1, 2),
                                  taken=taken, target=0x1000))
        else:
            trace.append(make_dyn(seq, pc, op="li", dest=1, result=seq))
        pc += 4
    return trace


@st.composite
def front_end_scenarios(draw):
    shape = draw(st.lists(
        st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=60))
    width = draw(st.integers(1, 8))
    buffer_capacity = draw(st.integers(1, 16))
    miss_lines = draw(st.sets(st.integers(0, 10), max_size=3))
    return shape, width, buffer_capacity, miss_lines


@settings(max_examples=60, deadline=None)
@given(scenario=front_end_scenarios())
def test_every_instruction_delivered_in_order(scenario):
    shape, width, buffer_capacity, miss_lines = scenario
    trace = build_trace(shape)

    def icache(pc):
        return 5 if (pc >> 5) - (0x1000 >> 5) in miss_lines else 1

    engine = FetchEngine(iter(trace), icache, TakenPredictor(),
                         width=width, buffer_capacity=buffer_capacity)
    delivered = []
    for cycle in range(20 * len(trace) + 50):
        for fetched in pop_fetched(engine, cycle, 100):
            delivered.append(fetched.dyn.seq)
            # resolve any branch immediately so fetch can resume
            engine.branch_resolved(fetched.dyn.seq, cycle)
        engine.tick(cycle)
        if engine.done:
            delivered.extend(f.dyn.seq for f
                             in pop_fetched(engine, cycle + 1, 100))
            break
    assert delivered == list(range(len(trace)))


@settings(max_examples=40, deadline=None)
@given(scenario=front_end_scenarios())
def test_buffer_never_overflows(scenario):
    shape, width, buffer_capacity, miss_lines = scenario
    trace = build_trace(shape)
    engine = FetchEngine(iter(trace), lambda pc: 1, TakenPredictor(),
                         width=width, buffer_capacity=buffer_capacity)
    for cycle in range(3 * len(trace) + 20):
        engine.tick(cycle)
        assert len(engine._buffer) <= buffer_capacity
        # drain slowly (1/cycle) to maximize pressure
        taken = pop_fetched(engine, cycle, 1)
        for fetched in taken:
            engine.branch_resolved(fetched.dyn.seq, cycle)
        if engine.done:
            break
