"""The paper's memory hierarchy, assembled (Table 1).

* L1 I-cache: 64KB, 2-way, 32-byte lines, 1-cycle hit, 6-cycle miss
  penalty to L2.
* L1 D-cache: same geometry, 3 R/W ports (port arbitration lives in the
  core, which owns per-cycle resources).
* L2: unified, 256KB, 4-way, 64-byte lines, 6-cycle hit time.
* Main memory: 8-byte bus, 18-cycle first chunk, 2-cycle interchunk.

The hierarchy is shared by all clusters — the paper partitions the
processor core, not the memory system.
"""

from __future__ import annotations

from .cache import Cache
from .main_memory import MainMemory

__all__ = ["MemoryHierarchy"]


class MemoryHierarchy:
    """L1I + L1D over a unified L2 over main memory.

    All methods return *latencies in cycles*; the core turns them into
    ready times and stalls.
    """

    def __init__(self,
                 l1_size: int = 64 * 1024, l1_assoc: int = 2,
                 l1_line: int = 32, l1_hit: int = 1,
                 l2_size: int = 256 * 1024, l2_assoc: int = 4,
                 l2_line: int = 64, l2_hit: int = 6,
                 dcache_ports: int = 3,
                 memory: MainMemory = None) -> None:
        self.memory = memory or MainMemory()
        self.l2 = Cache("L2", l2_size, l2_assoc, l2_line, l2_hit,
                        next_level=None,
                        memory_latency=self.memory.fill_latency(l2_line))
        self.l1i = Cache("L1I", l1_size, l1_assoc, l1_line, l1_hit,
                         next_level=self.l2)
        self.l1d = Cache("L1D", l1_size, l1_assoc, l1_line, l1_hit,
                         next_level=self.l2)
        self.dcache_ports = dcache_ports

    def fetch_latency(self, pc: int) -> int:
        """Latency of fetching the line containing *pc*."""
        return self.l1i.access(pc)

    def data_latency(self, addr: int, is_write: bool = False) -> int:
        """Latency of a data access at *addr* (port arbitration elsewhere)."""
        return self.l1d.access(addr, is_write)

    def stats(self) -> dict:
        """Hit/miss statistics of every level."""
        return {"l1i": self.l1i.stats.as_dict(),
                "l1d": self.l1d.stats.as_dict(),
                "l2": self.l2.stats.as_dict()}
