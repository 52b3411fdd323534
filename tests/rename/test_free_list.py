"""The per-cluster free pools (§2.1), as the cycle loop drives them.

"Each cluster has a free pool of physical registers from where they are
allocated when needed."  The pools are ``RenameUnit.free`` (a FIFO of
bank-local indices per cluster and bank) and ``RenameUnit.allocated``;
dispatch allocates from them and commit frees each writer's previous
mapping set back into them.
"""

import pytest

from repro.rename import INT_BANK

from ..conftest import dispatch_all, program_processor

TWO_WRITES = [("li", "r1", 1), ("li", "r1", 2)]


def test_alloc_until_empty_then_none():
    # One spare integer register: each writer waits in decode until
    # the previous one commits and frees a register ("pregs" stall).
    processor = program_processor([("li", f"r{1 + i % 8}", i)
                                   for i in range(12)],
                                  pregs_per_cluster=33)
    pool = processor.renamer.free[0][INT_BANK]
    assert len(pool) == 1
    result = processor.run()
    assert result.stats.committed_insts == 12
    assert result.stats.decode_stalls["pregs"] > 0
    assert len(pool) == 1


def test_free_returns_to_pool():
    processor = program_processor(TWO_WRITES)
    unit = processor.renamer
    initial = unit.rows[1][0]
    first, second = list(unit.free[0][INT_BANK])[:2]
    processor.run()
    # Each writer's commit frees the register the previous one held.
    assert list(unit.free[0][INT_BANK])[-2:] == [initial, first]
    assert unit.rows[1] == [second]


def test_is_allocated_tracking():
    processor = program_processor(TWO_WRITES)
    unit = processor.renamer
    allocated = unit.allocated[0][INT_BANK]
    initial = unit.rows[1][0]
    assert allocated[initial]
    dispatch_all(processor)
    first, second = (uop.dest_preg for uop in processor.rob)
    assert allocated[first] and allocated[second]
    assert first not in unit.free[0][INT_BANK]
    processor.run()
    assert not allocated[initial] and not allocated[first]
    assert allocated[second]


def test_fifo_recycling_order():
    # Freed registers join the pool's tail in commit order; allocation
    # takes the head.
    processor = program_processor([("li", "r1", 1), ("li", "r2", 2),
                                   ("li", "r1", 3), ("li", "r2", 4)])
    unit = processor.renamer
    old = [unit.rows[1][0], unit.rows[2][0]]
    head = list(unit.free[0][INT_BANK])[:4]
    processor.run()
    assert list(unit.free[0][INT_BANK])[-4:] == old + head[:2]
    assert [unit.rows[1][0], unit.rows[2][0]] == head[2:]


def test_double_free_raises():
    processor = program_processor(TWO_WRITES)
    dispatch_all(processor)
    writer = processor.rob[0]
    ((cluster, preg),) = writer.free_on_commit
    # Free the register behind the writer's back: its commit must
    # refuse to free it a second time.
    processor.renamer.allocated[cluster][INT_BANK][preg] = False
    with pytest.raises(ValueError, match="double free"):
        processor.run()


def test_free_of_never_allocated_raises():
    processor = program_processor(TWO_WRITES)
    dispatch_all(processor)
    never = processor.renamer.free[0][INT_BANK][-1]
    processor.rob[0].free_on_commit = [(0, never)]
    with pytest.raises(ValueError, match="double free"):
        processor.run()
