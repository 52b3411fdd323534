"""Unit tests for the set-associative cache timing model."""

import pytest

from repro.memory import Cache


def contains(cache, addr):
    """Whether *addr*'s line sits in its set: a probe of the set
    contents that touches neither LRU state nor stats."""
    return (addr >> cache._tag_shift) in \
        cache._sets[(addr >> cache._line_shift) & cache._set_mask]


def make_l1(**kw):
    defaults = dict(name="L1", size_bytes=1024, assoc=2, line_bytes=32,
                    hit_time=1, memory_latency=10)
    defaults.update(kw)
    return Cache(**defaults)


def test_geometry():
    cache = make_l1()
    assert cache.num_sets == 1024 // (2 * 32)


def test_bad_geometry_rejected():
    with pytest.raises(ValueError):
        Cache("bad", 1000, 3, 32, 1)
    with pytest.raises(ValueError):   # 3 sets: not a power of two
        Cache("bad", 3 * 2 * 32, 2, 32, 1)


def test_cold_miss_then_hit():
    cache = make_l1()
    assert cache.access(0x100) == 1 + 10
    assert cache.access(0x100) == 1
    assert cache.access(0x11C) == 1       # same 32-byte line
    assert cache.access(0x120) == 11      # next line


def test_stats_track_hits_and_misses():
    cache = make_l1()
    assert [cache.access(a) for a in (0, 0, 64)] == [11, 1, 11]
    assert cache.stats.accesses == 3
    assert cache.stats.misses == 2
    assert cache.stats.miss_rate == pytest.approx(2 / 3)


def test_lru_eviction_within_set():
    cache = make_l1()   # 2-way, 16 sets, set stride = 16*32 = 512
    a, b, c = 0x0, 0x200, 0x400   # all map to set 0
    cache.access(a)
    cache.access(b)
    cache.access(a)     # a is now MRU
    cache.access(c)     # evicts b (LRU)
    assert contains(cache, a)
    assert contains(cache, c)
    assert not contains(cache, b)
    assert cache.access(b) == 1 + 10


def test_two_level_miss_latency_composes():
    l2 = Cache("L2", 4096, 4, 64, 6, memory_latency=32)
    l1 = Cache("L1", 1024, 2, 32, 1, next_level=l2)
    assert l1.access(0) == 1 + 6 + 32   # cold: L1 miss + L2 miss + memory
    assert l1.access(0) == 1            # L1 hit
    assert l1.access(32) == 1 + 6       # L1 miss, L2 hit (same 64B line)


def test_capacity_sweep_evicts_everything():
    cache = make_l1()
    lines = cache.num_sets * cache.assoc
    for i in range(2 * lines):
        cache.access(i * 32)
    for i in range(lines):   # first half fully evicted
        assert not contains(cache, i * 32)
