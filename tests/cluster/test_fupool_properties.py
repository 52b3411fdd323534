"""Property-based tests of the FU pool's per-cycle accounting."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import FUPool
from repro.core import make_config
from repro.core.processor import Processor
from repro.isa import execute
from repro.isa.opcodes import OpClass

from ..core.test_processor_properties import random_programs

INT_OPS = [OpClass.IALU, OpClass.IMUL, OpClass.IDIV, OpClass.LOAD,
           OpClass.STORE]
FP_OPS = [OpClass.FALU, OpClass.FMUL, OpClass.FDIV]


@st.composite
def pool_configs(draw):
    int_units = draw(st.integers(1, 8))
    fp_units = draw(st.integers(1, 4))
    return dict(
        int_units=int_units,
        int_muldiv=draw(st.integers(1, int_units)),
        fp_units=fp_units,
        fp_muldiv=draw(st.integers(1, fp_units)),
        int_width=draw(st.integers(1, 8)),
        fp_width=draw(st.integers(1, 4)))


@settings(max_examples=60)
@given(config=pool_configs(),
       requests=st.lists(st.sampled_from(INT_OPS + FP_OPS), max_size=40))
def test_single_cycle_never_exceeds_any_limit(config, requests):
    pool = FUPool(**config)
    pool.begin_cycle(0)
    granted = [op for op in requests
               if pool.try_issue_desc(pool.descriptor(op))]
    int_granted = [op for op in granted if op in INT_OPS]
    fp_granted = [op for op in granted if op in FP_OPS]
    assert len(int_granted) <= min(config["int_width"],
                                   config["int_units"])
    assert len(fp_granted) <= min(config["fp_width"], config["fp_units"])
    muldiv = [op for op in int_granted
              if op in (OpClass.IMUL, OpClass.IDIV)]
    assert len(muldiv) <= config["int_muldiv"]
    fpmuldiv = [op for op in fp_granted
                if op in (OpClass.FMUL, OpClass.FDIV)]
    assert len(fpmuldiv) <= config["fp_muldiv"]


@settings(max_examples=10, deadline=None)
@given(program=random_programs(), n_clusters=st.sampled_from([2, 4]))
def test_idle_capacity_consistent_across_cycles(program, n_clusters):
    """Every cycle the issue stage measures NREADY, each cluster's idle
    capacity per side lies within [0, min(issue width, units)]."""
    config = make_config(n_clusters, predictor="stride", steering="vpb")
    trace = execute(program, 1_500)
    processor = Processor(config, iter(trace))
    record = processor.nready.record

    def checked(leftover_int, idle_int, leftover_fp, idle_fp):
        for idle, width, units in (
                (idle_int, config.int_issue_width, config.int_units),
                (idle_fp, config.fp_issue_width, config.fp_units)):
            assert len(idle) == n_clusters
            assert all(0 <= i <= min(width, units) for i in idle)
        record(leftover_int, idle_int, leftover_fp, idle_fp)
    processor.nready.record = checked
    assert processor.run().stats.committed_insts == len(trace)


@settings(max_examples=30)
@given(config=pool_configs(), divs=st.integers(1, 6))
def test_divides_eventually_all_issue(config, divs):
    """Non-pipelined divides serialize but never wedge the pool."""
    pool = FUPool(**config, latencies={OpClass.IDIV: 5})
    remaining = divs
    for cycle in range(divs * 6 + 10):
        pool.begin_cycle(cycle)
        while remaining and pool.try_issue_desc(
                pool.descriptor(OpClass.IDIV)):
            remaining -= 1
        if not remaining:
            break
    assert remaining == 0
