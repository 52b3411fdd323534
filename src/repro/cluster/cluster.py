"""One homogeneous cluster: issue queues, register file, functional units.

"Each cluster has its own instruction queue, a physical register file, a
set of functional units, and the corresponding data bypasses among these
functional units." (§2)
"""

from __future__ import annotations

from .functional_unit import FUPool
from .issue_queue import IssueQueue
from .register_file import RegisterFile

__all__ = ["Cluster"]


class Cluster:
    """Container tying together the per-cluster hardware structures."""

    def __init__(self, cluster_id: int, iq_size: int, n_pregs: int,
                 fupool: FUPool) -> None:
        self.cluster_id = cluster_id
        self.iq_int = IssueQueue(iq_size)
        self.iq_fp = IssueQueue(iq_size)
        self.regfile = RegisterFile(n_pregs)
        self.fupool = fupool

    def iq_for(self, int_side: bool) -> IssueQueue:
        """The integer or fp queue."""
        return self.iq_int if int_side else self.iq_fp

    @property
    def occupancy(self) -> int:
        """Total queued uops (both sides)."""
        return len(self.iq_int) + len(self.iq_fp)

    def __repr__(self) -> str:
        return (f"<Cluster {self.cluster_id}: iq_int={len(self.iq_int)} "
                f"iq_fp={len(self.iq_fp)}>")
