"""Set-associative cache timing model.

Timing-only: the functional values live in the trace; the cache tracks
tags and replacement state to decide whether each access is a hit, and
reports the access latency.  Parameters follow Table 1 of the paper
(64KB 2-way L1s with 32-byte lines, 256KB 4-way L2 with 64-byte lines).
"""

from __future__ import annotations

from typing import Dict, Optional

__all__ = ["Cache", "CacheStats"]


class CacheStats:
    """Hit/miss counters for one cache."""

    __slots__ = ("accesses", "misses")

    def __init__(self) -> None:
        self.accesses = 0
        self.misses = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {"accesses": self.accesses, "misses": self.misses,
                "miss_rate": self.miss_rate}


class Cache:
    """One level of set-associative cache with LRU replacement.

    Args:
        name: label used in statistics.
        size_bytes: total capacity; the set count it implies,
            ``size_bytes // (assoc * line_bytes)``, must be a power of two.
        assoc: number of ways.
        line_bytes: line size (power of two).
        hit_time: latency of a hit, in cycles.
        next_level: the cache backing this one, or ``None`` when misses
            go to main memory.
        miss_penalty: extra cycles a miss costs on top of this cache's
            hit time, when ``next_level`` is ``None`` is not used; when a
            fixed L1->L2 penalty is wanted (the paper quotes "6 cycle
            miss penalty" for the L1s) it can be given here and the next
            level is still consulted to model L2 hits vs misses.
        memory_latency: cycles charged when the *last* level misses.
    """

    def __init__(self, name: str, size_bytes: int, assoc: int,
                 line_bytes: int, hit_time: int,
                 next_level: Optional["Cache"] = None,
                 memory_latency: int = 32) -> None:
        if size_bytes % (assoc * line_bytes):
            raise ValueError(f"{name}: size must be a multiple of "
                             f"assoc * line_bytes")
        num_sets = size_bytes // (assoc * line_bytes)
        if num_sets & (num_sets - 1):
            raise ValueError(f"{name}: the set count ({num_sets}) must be "
                             f"a power of two")
        self.name = name
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.line_bytes = line_bytes
        self.hit_time = hit_time
        self.next_level = next_level
        self.memory_latency = memory_latency
        self.num_sets = num_sets
        self._line_shift = line_bytes.bit_length() - 1
        # Power-of-two sets: the set index is the line number's low bits
        # and the tag the rest.
        self._set_mask = num_sets - 1
        self._tag_shift = self._line_shift + num_sets.bit_length() - 1
        # sets[i] maps tag -> last-use stamp (LRU via min stamp eviction)
        self._sets = [dict() for _ in range(self.num_sets)]
        self._stamp = 0
        self.stats = CacheStats()

    def access(self, addr: int, is_write: bool = False) -> int:
        """Access *addr*; returns the total latency in cycles.

        Misses allocate (write-allocate) and recurse into the next
        level; the returned latency is this level's hit time plus the
        next level's latency on a miss.
        """
        stats = self.stats
        stats.accesses += 1
        cache_set = self._sets[(addr >> self._line_shift) & self._set_mask]
        tag = addr >> self._tag_shift
        self._stamp = stamp = self._stamp + 1
        if tag in cache_set:
            cache_set[tag] = stamp
            return self.hit_time
        stats.misses += 1
        if len(cache_set) >= self.assoc:
            victim = min(cache_set, key=cache_set.__getitem__)
            del cache_set[victim]
        cache_set[tag] = stamp
        if self.next_level is not None:
            return self.hit_time + self.next_level.access(addr, is_write)
        return self.hit_time + self.memory_latency
