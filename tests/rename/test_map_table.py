"""The N-field register map table of §2.1 / Figure 1.

One entry per logical register with one field per cluster
(``RenameUnit.rows``).  Dispatch renames a destination by validating
exactly the producing cluster's field and invalidating the rest; a copy
validates one more field; the whole previous mapping set (original plus
replicas) is freed when the *next* writer commits.
"""

import pytest

from repro.isa.registers import NUM_LOGICAL_REGS
from repro.rename import INT_BANK, RenameUnit

from ..conftest import dispatch_all, program_processor

#: Round-robin over two clusters: the li runs in cluster 0, the add in
#: cluster 1 (r1 is copied there), the second li in cluster 0 again.
COPY_THEN_REDEFINE = [("li", "r1", 5), ("add", "r2", "r1", "r1"),
                      ("li", "r1", 6)]


def test_initially_unmapped():
    unit = RenameUnit(4, 2, 8)
    assert unit.rows[0] == [None, None]
    assert unit.mapped_clusters(0) == []
    assert unit.mapped_set(0) == frozenset()


def test_define_validates_one_field():
    # r5 starts in cluster 1 (5 % 4); a writer in cluster 0 leaves it
    # valid there only.
    processor = program_processor([("li", "r5", 9)], n_clusters=4)
    unit = processor.renamer
    assert unit.mapped_clusters(5) == [1]
    dispatch_all(processor)
    (writer,) = processor.rob
    assert unit.rows[5] == [writer.dest_preg, None, None, None]
    assert unit.mapped_clusters(5) == [0]
    assert unit.mapped_set(5) == frozenset((0,))


def test_replica_adds_field():
    processor = program_processor(COPY_THEN_REDEFINE[:2], n_clusters=2)
    dispatch_all(processor)
    writer, copy, _ = processor.rob
    unit = processor.renamer
    assert unit.rows[1] == [writer.dest_preg, copy.dest_preg]
    assert unit.mapped_clusters(1) == [0, 1]
    assert unit.mapped_set(1) == frozenset((0, 1))


def test_replica_conflict_raises():
    unit = RenameUnit(NUM_LOGICAL_REGS, 2, 40)
    unit.reset_mapping()
    with pytest.raises(ValueError, match="already mapped"):
        unit.alloc_replica(0, 0, INT_BANK)


def test_redefine_returns_full_previous_set_figure1c():
    """Figure 1(c): a new writer frees the original and every replica."""
    processor = program_processor(COPY_THEN_REDEFINE, n_clusters=2)
    dispatch_all(processor)
    first, copy, _, second = processor.rob
    assert sorted(second.free_on_commit) == [(0, first.dest_preg),
                                             (1, copy.dest_preg)]
    assert processor.renamer.mapped_clusters(1) == [0]
    processor.run()
    unit = processor.renamer
    assert not unit.allocated[0][INT_BANK][first.dest_preg]
    assert not unit.allocated[1][INT_BANK][copy.dest_preg]
    assert unit.rows[1] == [second.dest_preg, None]


def test_logical_registers_independent():
    unit = RenameUnit(3, 2, 8)
    unit.reset_mapping()
    assert [unit.mapped_clusters(r) for r in range(3)] == [[0], [1], [0]]
    unit.alloc_replica(0, 1, INT_BANK)
    assert unit.mapped_clusters(0) == [0, 1]
    assert [unit.mapped_clusters(r) for r in (1, 2)] == [[1], [0]]
