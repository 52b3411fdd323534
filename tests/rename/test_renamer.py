"""The rename unit's state (banked free pools + map table) and the
Figure 1 flow dispatch and commit run on it."""

import dataclasses

import pytest

from repro.core import make_config
from repro.core.processor import Processor
from repro.isa.registers import FP_BASE, NUM_LOGICAL_REGS
from repro.rename import FP_BANK, INT_BANK, RenameUnit

from ..conftest import dispatch_all, program_processor


def test_initial_mapping_covers_every_logical_register():
    unit = RenameUnit(NUM_LOGICAL_REGS, 4, 56)
    pairs = unit.reset_mapping()
    assert pairs == [(logical % 4, unit.rows[logical][logical % 4])
                     for logical in range(NUM_LOGICAL_REGS)]
    for logical in range(NUM_LOGICAL_REGS):
        assert unit.mapped_clusters(logical) == [logical % 4]


def test_banks_split_int_and_fp():
    unit = RenameUnit(NUM_LOGICAL_REGS, 2, 40)
    unit.reset_mapping()
    # 32 int and 32 fp logical registers spread over 2 clusters.
    for cluster in (0, 1):
        for bank in (INT_BANK, FP_BANK):
            assert 40 - len(unit.free[cluster][bank]) == 16
            assert sum(unit.allocated[cluster][bank]) == 16


def test_bank_of():
    unit = RenameUnit(NUM_LOGICAL_REGS, 1, 40)
    unit.reset_mapping()
    for logical, (preg,) in enumerate(unit.rows):
        bank = FP_BANK if logical >= FP_BASE else INT_BANK
        assert preg // 40 == bank


def test_fp_pregs_are_offset():
    processor = program_processor([("cvtif", "f1", "r0"), ("li", "r1", 1)],
                                  pregs_per_cluster=64)
    dispatch_all(processor)
    fp_writer, int_writer = processor.rob
    assert fp_writer.dest_preg >= 64    # fp bank ids live above the int bank
    assert int_writer.dest_preg < 64


def test_define_dest_returns_previous_for_commit_free():
    processor = program_processor([("li", "r3", 1)], n_clusters=2)
    unit = processor.renamer
    original = unit.rows[3][1]
    dispatch_all(processor)
    (writer,) = processor.rob
    assert writer.free_on_commit == [(1, original)]
    assert unit.rows[3] == [writer.dest_preg, None]
    processor.run()
    assert not unit.allocated[1][INT_BANK][original]


def test_replica_then_redefine_then_release_roundtrip():
    processor = program_processor([("li", "r2", 5), ("add", "r3", "r2", "r2"),
                                   ("li", "r2", 6)], n_clusters=2)
    unit = processor.renamer

    def free_int():
        return len(unit.free[0][INT_BANK]) + len(unit.free[1][INT_BANK])
    before = free_int()
    processor.run()
    # The replica and the original were freed, the new dest was
    # allocated: one mapping per register before, one after.
    assert free_int() == before
    assert unit.mapped_clusters(2) == [0]


def test_free_count_decrements_per_bank():
    processor = program_processor([("cvtif", "f4", "r0")], n_clusters=2)
    free = processor.renamer.free[0]
    before = len(free[INT_BANK]), len(free[FP_BANK])
    dispatch_all(processor)
    assert (len(free[INT_BANK]), len(free[FP_BANK])) == (before[0],
                                                         before[1] - 1)


def test_too_small_register_file_rejected_at_reset():
    config = dataclasses.replace(make_config(1), pregs_per_cluster=16)
    with pytest.raises(ValueError, match="initial mapping"):
        Processor(config, iter([]))   # cannot hold 32 per bank
