"""Unit tests for the assembled memory hierarchy and main memory."""

import pytest

from repro.memory import MainMemory, MemoryHierarchy


class TestMainMemory:
    def test_fill_latency_formula(self):
        memory = MainMemory(first_chunk=18, interchunk=2, bus_bytes=8)
        assert memory.fill_latency(64) == 18 + 7 * 2
        assert memory.fill_latency(32) == 18 + 3 * 2
        assert memory.fill_latency(8) == 18
        assert memory.fill_latency(1) == 18

    def test_bad_bus_rejected(self):
        with pytest.raises(ValueError):
            MainMemory(bus_bytes=0)


def evict_from_l1d(h, addr):
    """Push *addr*'s line out of the 2-way L1D with two accesses to its
    set; the second shares its L2 set, which keeps four ways."""
    stride = h.l1d.num_sets * h.l1d.line_bytes
    h.data_latency(addr + stride)
    h.data_latency(addr + 2 * stride)


class TestHierarchy:
    def test_paper_defaults(self):
        h = MemoryHierarchy()
        assert h.l1i.size_bytes == 64 * 1024 and h.l1i.assoc == 2
        assert h.l1d.line_bytes == 32 and h.l1d.hit_time == 1
        assert h.l2.size_bytes == 256 * 1024 and h.l2.assoc == 4
        assert h.l2.hit_time == 6
        assert h.dcache_ports == 3

    def test_fetch_and_data_paths_are_separate_l1s(self):
        h = MemoryHierarchy()
        h.fetch_latency(0x1000)
        assert h.l1i.stats.accesses == 1
        assert h.l1d.stats.accesses == 0
        h.data_latency(0x1000)
        assert h.l1d.stats.accesses == 1

    def test_l1_miss_penalty_is_six_on_l2_hit(self):
        h = MemoryHierarchy()
        h.data_latency(0x4000)            # cold: misses to memory
        evict_from_l1d(h, 0x4000)
        assert h.data_latency(0x4000) == 1 + 6   # L2 hit now

    def test_l2_shared_between_instruction_and_data(self):
        h = MemoryHierarchy()
        h.fetch_latency(0x8000)           # fills L2 via the I side
        assert h.data_latency(0x8000) == 7   # L2 hit from the D side

    def test_stats_bundle(self):
        h = MemoryHierarchy()
        h.fetch_latency(0)
        h.data_latency(0x100, is_write=True)
        stats = h.stats()
        assert set(stats) == {"l1i", "l1d", "l2"}
        assert stats["l1i"]["accesses"] == 1
        assert stats["l1d"]["misses"] == 1
