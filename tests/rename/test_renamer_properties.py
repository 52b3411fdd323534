"""Property-based tests: rename/commit traffic never leaks registers.

Random programs (the generator of tests/core/test_processor_properties.py)
run through a real :class:`~repro.core.processor.Processor`, so the
checks hold the rename rules the cycle loop runs: ``_dispatch``
renaming destinations and allocating copy replicas, ``_commit`` freeing
each writer's previous mapping set.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import NEVER
from repro.core import make_config
from repro.core.processor import Processor
from repro.isa import execute
from repro.isa.registers import FP_BASE, NUM_LOGICAL_REGS
from repro.rename import FP_BANK, INT_BANK

from ..conftest import at_cycle_boundaries
from ..core.test_processor_properties import random_programs


def check_registers(processor) -> None:
    """Every physical register is either in its pool or checked out,
    never both; the checked-out ones are exactly the valid map fields
    plus the previous mapping sets the in-flight writers free at
    commit; a free register's scoreboard entry is reset; the
    mapped-cluster caches agree with the map table."""
    unit = processor.renamer
    size = unit.pregs_per_bank
    held = [(c, preg) for row in unit.rows
            for c, preg in enumerate(row) if preg is not None]
    held += [pair for uop in processor.rob for pair in uop.free_on_commit]
    assert len(held) == len(set(held))
    for cluster in range(unit.n_clusters):
        regfile = processor.clusters[cluster].regfile
        for bank in (INT_BANK, FP_BANK):
            free = set(unit.free[cluster][bank])
            assert len(free) == len(unit.free[cluster][bank])
            checked_out = {i for i, flag
                           in enumerate(unit.allocated[cluster][bank])
                           if flag}
            assert free.isdisjoint(checked_out)
            assert len(free) + len(checked_out) == size
            assert checked_out == {preg - bank * size for c, preg in held
                                   if c == cluster and preg // size == bank}
            for index in free:
                assert regfile.ready[index + bank * size] == NEVER
                assert regfile.producer[index + bank * size] is None
    for logical, row in enumerate(unit.rows):
        bank = FP_BANK if logical >= FP_BASE else INT_BANK
        mapped = [c for c, preg in enumerate(row) if preg is not None]
        assert mapped
        assert all(row[c] // size == bank for c in mapped)
        if unit.mapped_lists[logical] is not None:
            assert unit.mapped_lists[logical] == mapped
        if unit.mapped_sets[logical] is not None:
            assert unit.mapped_sets[logical] == frozenset(mapped)


@settings(max_examples=15, deadline=None)
@given(program=random_programs(),
       n_clusters=st.sampled_from([1, 2, 4]),
       predictor=st.sampled_from(["none", "stride"]))
def test_write_commit_cycle_preserves_register_count(program, n_clusters,
                                                     predictor):
    """After the drain every logical register keeps its mappings and
    nothing else is checked out: at one cluster exactly one mapping per
    register, half of them per bank."""
    trace = execute(program, 2_000)
    processor = Processor(make_config(n_clusters, predictor=predictor,
                                      steering="vpb"), iter(trace))
    processor.run()
    check_registers(processor)
    if n_clusters == 1:
        unit = processor.renamer
        assert all(len(unit.mapped_clusters(lr)) == 1
                   for lr in range(NUM_LOGICAL_REGS))
        for bank in (INT_BANK, FP_BANK):
            assert sum(unit.allocated[0][bank]) == NUM_LOGICAL_REGS // 2


@settings(max_examples=10, deadline=None)
@given(program=random_programs(),
       n_clusters=st.sampled_from([1, 2, 4]),
       steering=st.sampled_from(["baseline", "vpb", "round-robin"]))
def test_mixed_traffic_invariants(program, n_clusters, steering):
    """Replicas, writes and commits interleaved: mappings and pools stay
    coherent at every cycle boundary."""
    trace = execute(program, 1_500)
    processor = Processor(make_config(n_clusters, predictor="stride",
                                      steering=steering), iter(trace))
    result = at_cycle_boundaries(processor, check_registers)
    assert result.stats.committed_insts == len(trace)
