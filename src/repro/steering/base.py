"""Steering interfaces: the decode-time operand view and the Steerer ABC.

The steering logic runs in the decode/rename stage.  For each source
operand it sees exactly what the map table and scoreboards expose at that
moment (§2.3.1): where the operand is mapped, whether its value is
already available, where a pending value will be produced soonest, and —
for the value-prediction-aware schemes — whether a confident prediction
exists for it.
"""

from __future__ import annotations

from typing import FrozenSet, NamedTuple, Optional, Sequence

from .metrics import DCountTracker

__all__ = ["SourceView", "Steerer"]

_ALL_CLUSTERS_CACHE = {}


def _all_clusters(n: int) -> FrozenSet[int]:
    cached = _ALL_CLUSTERS_CACHE.get(n)
    if cached is None:
        cached = frozenset(range(n))
        _ALL_CLUSTERS_CACHE[n] = cached
    return cached


class SourceView(NamedTuple):
    """Decode-time facts about one source operand.

    The core builds plain tuples of these fields, in this order, and
    steerers unpack them positionally.

    Attributes:
        available: value is already computed in at least one mapped
            cluster at decode time.
        mapped: clusters with a valid map-table field for the operand.
        soonest_cluster: mapped cluster where the value is (or will
            first be) available — rule 2.1's "where the pending operand
            is to be produced", narrowed per §2.3.1 when replicas are in
            flight.
        predicted: a confident value prediction exists for this operand.
    """

    available: bool
    mapped: FrozenSet[int]
    soonest_cluster: Optional[int]
    predicted: bool


class Steerer:
    """Decides the execution cluster of each decoded instruction."""

    #: Human-readable scheme name (used in reports and benchmarks).
    name = "abstract"

    #: Decision class of the most recent :meth:`choose` call — why the
    #: cluster was picked ("balance", "pending", "mapped", "mod2-all",
    #: "unconstrained", "static", ...).  Read by the event tracer when
    #: the instruction actually dispatches; because decode retries call
    #: ``choose`` again before dispatching, the attribute always
    #: reflects the decision that took effect.  Purely observational:
    #: no steering logic may read it.
    last_reason = "unknown"

    def __init__(self, n_clusters: int) -> None:
        self.n_clusters = n_clusters

    def choose(self, sources: Sequence[SourceView],
               dcount: DCountTracker, pc: Optional[int] = None) -> int:
        """Return the cluster for an instruction with *sources*.

        *sources* holds one :class:`SourceView` per source operand, in
        slot order; the core passes plain tuples, so read them by
        unpacking, not by field name.  *pc* is the instruction's
        address; only PC-indexed schemes (static partitioning) use it.

        ``choose`` may be called several times for the same instruction
        (the decode stage retries after structural stalls), so it may
        set only :attr:`last_reason`.  The core updates *dcount* once
        per actual dispatch, after the decision, so a scheme that
        depends on past dispatches reads them there
        (:attr:`DCountTracker.dispatches`); implementations must not
        mutate it.
        """
        raise NotImplementedError

    def all_clusters(self) -> FrozenSet[int]:
        """The full candidate set."""
        return _all_clusters(self.n_clusters)
