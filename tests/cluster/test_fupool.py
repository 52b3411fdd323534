"""Unit tests for the functional-unit pool and issue-width accounting."""

import pytest

from repro.cluster import FUPool
from repro.isa.opcodes import OpClass


def make_pool(**kw):
    """The paper's 4-cluster pool: 2 int (1 muldiv), 1 fp, widths 2/1."""
    defaults = dict(int_units=2, int_muldiv=1, fp_units=1, fp_muldiv=1,
                    int_width=2, fp_width=1)
    defaults.update(kw)
    return FUPool(**defaults)


def issue(pool, opclass):
    """Issue one *opclass* instruction the way the core does."""
    return pool.try_issue_desc(pool.descriptor(opclass))


class TestWidths:
    def test_int_width_limits_issues(self):
        pool = make_pool()
        pool.begin_cycle(0)
        assert issue(pool, OpClass.IALU)
        assert issue(pool, OpClass.IALU)
        assert not issue(pool, OpClass.IALU)

    def test_fp_width_independent_of_int(self):
        pool = make_pool()
        pool.begin_cycle(0)
        issue(pool, OpClass.IALU)
        issue(pool, OpClass.IALU)
        assert issue(pool, OpClass.FALU)   # fp slot still free

    def test_begin_cycle_resets(self):
        pool = make_pool()
        pool.begin_cycle(0)
        issue(pool, OpClass.IALU)
        issue(pool, OpClass.IALU)
        pool.begin_cycle(1)
        assert issue(pool, OpClass.IALU)

    def test_loads_and_stores_are_int_side(self):
        pool = make_pool()
        pool.begin_cycle(0)
        assert issue(pool, OpClass.LOAD)
        assert issue(pool, OpClass.STORE)
        assert not issue(pool, OpClass.IALU)


class TestMulDiv:
    def test_only_muldiv_capable_units_multiply(self):
        pool = make_pool()   # 1 of 2 int units is mul/div capable
        pool.begin_cycle(0)
        assert issue(pool, OpClass.IMUL)
        assert not issue(pool, OpClass.IMUL)
        assert issue(pool, OpClass.IALU)   # plain unit still free

    def test_divide_blocks_its_unit_non_pipelined(self):
        pool = make_pool(latencies={OpClass.IDIV: 10})
        pool.begin_cycle(0)
        assert issue(pool, OpClass.IDIV)
        pool.begin_cycle(5)
        assert not issue(pool, OpClass.IMUL)   # unit busy until 10
        assert issue(pool, OpClass.IALU)       # other unit free
        pool.begin_cycle(10)
        assert issue(pool, OpClass.IMUL)

    def test_busy_divider_reduces_int_unit_pool(self):
        pool = make_pool(latencies={OpClass.IDIV: 10})
        pool.begin_cycle(0)
        issue(pool, OpClass.IDIV)
        pool.begin_cycle(1)
        assert issue(pool, OpClass.IALU)
        assert not issue(pool, OpClass.IALU)   # only 1 non-busy unit

    def test_fp_divide_non_pipelined(self):
        pool = make_pool(latencies={OpClass.FDIV: 12})
        pool.begin_cycle(0)
        assert issue(pool, OpClass.FDIV)
        pool.begin_cycle(3)
        assert not issue(pool, OpClass.FALU)   # single fp unit busy
        pool.begin_cycle(12)
        assert issue(pool, OpClass.FALU)

    def test_muldiv_exceeding_pool_rejected(self):
        with pytest.raises(ValueError):
            make_pool(int_muldiv=3)


class TestCopies:
    def test_copy_consumes_width_only(self):
        pool = make_pool()
        pool.begin_cycle(0)
        assert pool.try_issue_copy(False)
        assert pool.try_issue_copy(False)
        assert not pool.try_issue_copy(False)     # int width gone
        assert pool.try_issue_copy(True)          # fp width separate

    def test_copy_does_not_block_units(self):
        pool = make_pool(int_width=3)
        pool.begin_cycle(0)
        pool.try_issue_copy(False)
        assert issue(pool, OpClass.IALU)
        assert issue(pool, OpClass.IALU)       # both units usable


class TestIdleCapacity:
    def test_latency_lookup(self):
        pool = make_pool(latencies={OpClass.IDIV: 10})
        latency = {opclass: pool.descriptor(opclass)[3]
                   for opclass in OpClass}
        assert latency[OpClass.IALU] == 1
        assert latency[OpClass.IMUL] == 3
        assert latency[OpClass.FALU] == 2
        assert latency[OpClass.IDIV] == 10
