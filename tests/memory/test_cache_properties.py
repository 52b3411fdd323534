"""Property-based tests of the cache model's invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import Cache

from .test_cache import contains


@st.composite
def cache_geometries(draw):
    line = draw(st.sampled_from([16, 32, 64]))
    assoc = draw(st.sampled_from([1, 2, 4]))
    sets = draw(st.sampled_from([4, 16, 64]))
    return dict(name="C", size_bytes=sets * assoc * line, assoc=assoc,
                line_bytes=line, hit_time=1, memory_latency=10)


@settings(max_examples=60)
@given(geometry=cache_geometries(),
       addrs=st.lists(st.integers(0, 1 << 16), min_size=1, max_size=120))
def test_latency_is_hit_or_miss_exactly(geometry, addrs):
    cache = Cache(**geometry)
    for addr in addrs:
        latency = cache.access(addr)
        assert latency in (1, 11)
        # Immediately re-accessing the same line must hit.
        assert cache.access(addr) == 1
    assert cache.stats.accesses == 2 * len(addrs)
    assert cache.stats.misses <= len(addrs)


@settings(max_examples=40)
@given(geometry=cache_geometries(),
       addrs=st.lists(st.integers(0, 1 << 16), min_size=1, max_size=80))
def test_occupancy_never_exceeds_capacity(geometry, addrs):
    cache = Cache(**geometry)
    for addr in addrs:
        cache.access(addr)
    total_lines = sum(len(s) for s in cache._sets)
    assert total_lines <= cache.num_sets * cache.assoc
    for cache_set in cache._sets:
        assert len(cache_set) <= cache.assoc


@settings(max_examples=40)
@given(geometry=cache_geometries(),
       addrs=st.lists(st.integers(0, 1 << 14), min_size=2, max_size=60))
def test_contains_agrees_with_access_latency(geometry, addrs):
    cache = Cache(**geometry)
    for addr in addrs:
        expected_hit = contains(cache, addr)
        latency = cache.access(addr)
        assert (latency == 1) == expected_hit


@settings(max_examples=30)
@given(geometry=cache_geometries())
def test_working_set_within_capacity_always_hits_after_warmup(geometry):
    cache = Cache(**geometry)
    lines = cache.num_sets * cache.assoc
    working_set = [i * geometry["line_bytes"] for i in range(lines)]
    for addr in working_set:      # warm
        cache.access(addr)
    for addr in working_set:      # steady state: zero misses
        assert cache.access(addr) == 1
