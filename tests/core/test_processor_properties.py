"""Property-based tests: randomly generated programs always simulate
cleanly on every configuration.

The generator emits structurally valid µRISC programs (straight-line
bodies inside a counted loop, with loads/stores over a private buffer
and optional fp work), executes them functionally, and replays the trace
through the timing model.  Whatever the program, the simulator must
terminate, retire exactly the trace, and keep its accounting coherent.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import make_config, simulate
from repro.isa import ProgramBuilder, execute

INT_BINOPS = ["add", "sub", "and", "or", "xor", "min", "max", "mul"]
SCRATCH = [f"r{i}" for i in range(8, 24)]


@st.composite
def random_programs(draw, max_body=40, max_iters=40):
    """A counted loop of 3 to *max_body* body ops, 2 to *max_iters*
    iterations."""
    body_ops = draw(st.lists(
        st.tuples(st.sampled_from(INT_BINOPS + ["lw", "sw", "addi", "fp"]),
                  st.integers(0, len(SCRATCH) - 1),
                  st.integers(0, len(SCRATCH) - 1),
                  st.integers(0, 15)),
        min_size=3, max_size=max_body))
    iters = draw(st.integers(min_value=2, max_value=max_iters))
    b = ProgramBuilder()
    buf = b.data("buf", list(range(16)))
    b.emit("li", "r1", buf)
    b.emit("li", "r6", 0)
    b.emit("li", "r7", iters)
    for i, reg in enumerate(SCRATCH):
        b.emit("li", reg, i + 1)
    b.emit("li", "r24", 2)
    b.emit("cvtif", "f8", "r24")
    b.emit("cvtif", "f9", "r24")
    b.label("loop")
    for op, a, c, imm in body_ops:
        ra, rc = SCRATCH[a], SCRATCH[c]
        if op == "lw":
            b.emit("lw", ra, "r1", 4 * (imm % 16))
        elif op == "sw":
            b.emit("sw", ra, "r1", 4 * (imm % 16))
        elif op == "addi":
            b.emit("addi", ra, rc, imm - 8)
        elif op == "fp":
            b.emit("fadd", "f8", "f8", "f9")
        else:
            b.emit(op, ra, ra, rc)
    b.emit("addi", "r6", "r6", 1)
    b.emit("blt", "r6", "r7", "loop")
    b.emit("halt")
    return b.build()


@settings(max_examples=15, deadline=None)
@given(program=random_programs(),
       n_clusters=st.sampled_from([1, 2, 4]),
       predictor=st.sampled_from(["none", "stride", "perfect"]),
       steering=st.sampled_from(["baseline", "vpb", "modified",
                                 "round-robin"]))
def test_random_programs_always_drain(program, n_clusters, predictor,
                                      steering):
    trace = execute(program, 2_000)
    config = make_config(n_clusters, predictor=predictor, steering=steering)
    result = simulate(list(trace), config)
    stats = result.stats
    assert stats.committed_insts == len(trace)
    assert stats.cycles > 0
    assert stats.ipc <= config.int_issue_width * n_clusters + 0.01 + (
        config.fp_issue_width * n_clusters)
    assert stats.mismatch_forwards <= stats.communications
    if n_clusters == 1:
        assert stats.communications == 0
    if predictor == "none":
        assert stats.speculative_operands == 0
    if predictor == "perfect":
        assert stats.invalidations == 0


@settings(max_examples=10, deadline=None)
@given(program=random_programs())
def test_prediction_never_changes_commitment(program):
    """Value prediction is performance-only: same retirement, any config."""
    trace = execute(program, 2_000)
    baseline = simulate(list(trace), make_config(4))
    for predictor in ("stride", "perfect"):
        result = simulate(list(trace), make_config(4, predictor=predictor,
                                                   steering="vpb"))
        assert (result.stats.committed_insts
                == baseline.stats.committed_insts == len(trace))


@settings(max_examples=10, deadline=None)
@given(program=random_programs(),
       latency=st.sampled_from([1, 2, 4]),
       paths=st.sampled_from([1, 2, None]))
def test_interconnect_knobs_never_break_forward_progress(program, latency,
                                                         paths):
    trace = execute(program, 1_500)
    config = make_config(4, predictor="stride", steering="vpb",
                         comm_latency=latency,
                         comm_paths_per_cluster=paths)
    result = simulate(list(trace), config)
    assert result.stats.committed_insts == len(trace)
