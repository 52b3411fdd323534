"""Unit tests for the register-file ready-time scoreboard."""

import pytest

from repro.cluster import NEVER, RegisterFile
from repro.rename import INT_BANK

from ..conftest import program_processor


class Waiter:
    def __init__(self, wake_cycle, iq=None):
        self.wake_cycle = wake_cycle
        self.iq = iq


class Queue:
    next_try = 50


def test_initially_never_ready():
    rf = RegisterFile(4)
    assert rf.ready == [NEVER] * 4
    assert rf.producer == [None] * 4


def test_set_ready_semantics():
    rf = RegisterFile(4)
    rf.set_ready(1, 5)
    assert rf.ready[1] == 5
    # A parked reader's wake bound (and its queue's) only ever drops.
    queue = Queue()
    early, late = Waiter(3, queue), Waiter(20, queue)
    rf.waiters[2] = [early, late]
    rf.set_ready(2, 9)
    assert (early.wake_cycle, late.wake_cycle, queue.next_try) == (3, 9, 9)


def test_set_pending_records_producer():
    rf = RegisterFile(4)
    producer = object()
    rf.set_pending(2, producer)
    assert rf.producer[2] is producer
    assert rf.ready[2] == NEVER
    rf.set_ready(2, 7)
    assert rf.ready[2] == 7
    assert rf.producer[2] is producer   # producer survives until commit


def test_clear_resets_both_fields():
    # A register freed at commit leaves the scoreboard as it started.
    processor = program_processor([("li", "r1", 1), ("li", "r1", 2)])
    initial = processor.renamer.rows[1][0]
    first = processor.renamer.free[0][INT_BANK][0]
    processor.run()
    regfile = processor.clusters[0].regfile
    for preg in (initial, first):
        assert regfile.ready[preg] == NEVER
        assert regfile.producer[preg] is None
        assert preg not in regfile.waiters


def test_size_validated():
    with pytest.raises(ValueError):
        RegisterFile(0)
