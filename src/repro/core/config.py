"""Processor configurations (Table 1 of the paper).

:func:`make_config` builds the paper's three machines:

============================  =========  =========  =========
parameter                     1 cluster  2 clusters 4 clusters
============================  =========  =========  =========
fetch/decode/retire width     8          8          8
ROB                           128        128        128
IQ entries (per cluster)      64         32         16
physical regs (per cluster)   128        80         56
int units (mul/div capable)   8 (4)      4 (2)      2 (1)
fp units (mul/div capable)    4 (2)      2 (1)      1 (1)
issue width (per cluster)     8 int/4 fp 4 int/2 fp 2 int/1 fp
============================  =========  =========  =========

plus the shared front end (combined branch predictor), memory hierarchy,
1-cycle fully pipelined inter-cluster paths (latency and bandwidth are
the Figure 4 sweep knobs) and the 128K-entry stride value predictor
(the Figure 5 sweep knob).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from typing import Dict, Optional

from ..errors import ConfigError
from ..isa.opcodes import OpClass
from ..isa.registers import NUM_LOGICAL_REGS
from ..predictor import PREDICTORS
from ..steering import STEERERS

__all__ = ["ProcessorConfig", "make_config", "derive_preset",
           "CLUSTER_PRESETS"]


#: Per-cluster structure sizes for the paper's three configurations,
#: keyed by cluster count: (iq_size, pregs, int_units, int_muldiv,
#: fp_units, fp_muldiv, int_width, fp_width).
CLUSTER_PRESETS = {
    1: (64, 128, 8, 4, 4, 2, 8, 4),
    2: (32, 80, 4, 2, 2, 1, 4, 2),
    4: (16, 56, 2, 1, 1, 1, 2, 1),
}


@dataclass
class ProcessorConfig:
    """Complete parameterization of the simulated processor.

    The defaults reproduce the paper's 4-cluster machine with the
    Baseline steering scheme and no value prediction; use
    :func:`make_config` for the standard presets.
    """

    n_clusters: int = 4
    fetch_width: int = 8
    decode_width: int = 8
    retire_width: int = 8
    rob_size: int = 128
    iq_size: int = 16
    pregs_per_cluster: int = 56
    int_units: int = 2
    int_muldiv: int = 1
    fp_units: int = 1
    fp_muldiv: int = 1
    int_issue_width: int = 2
    fp_issue_width: int = 1

    # Inter-cluster communication (§4 sweeps).
    comm_latency: int = 1
    comm_paths_per_cluster: Optional[int] = None  # None = unbounded

    # Value prediction: a name in repro.predictor.PREDICTORS.
    predictor: str = "none"
    vp_entries: int = 128 * 1024
    vp_confidence_threshold: int = 1
    # Stride-update discipline: True = 2-delta (default, see
    # repro.predictor.stride), False = the paper's literal
    # replace-on-mismatch entry.
    vp_two_delta: bool = True

    # Steering: a name in repro.steering.STEERERS.
    steering: str = "baseline"
    balance_threshold: Optional[int] = None
    vpb_threshold: Optional[int] = None
    # PC -> cluster map for steering="static" (see
    # repro.steering.static.profile_static_assignment).
    static_assignment: Optional[Dict[int, int]] = None

    # Front end.  btb_entries=None models perfect branch targets (the
    # paper's unstated assumption); a power-of-two size enables a real
    # direct-mapped BTB whose misses stall fetch like mispredictions.
    btb_entries: Optional[int] = None
    fetch_buffer: int = 16
    extra_rename_cycles: int = 0  # §3.3's 2-cycle rename/steer ablation

    # §2.1's suggested (and deliberately unmodelled-by-the-paper)
    # optimization: dedicated copy-out hardware, so copies and
    # verification-copies no longer consume issue width.  Off by
    # default; the ablation benchmark quantifies what the paper left
    # on the table.
    free_copy_issue: bool = False

    # D-cache ports shared by issuing loads and committing stores.
    dcache_ports: int = 3

    # Functional-unit latency overrides (OpClass -> cycles).
    latencies: Dict[OpClass, int] = field(default_factory=dict)

    # Watchdog: abort (DeadlockError + pipeline snapshot) if nothing
    # commits for this many cycles.
    deadlock_cycles: int = 200_000

    # Golden-model co-simulation: committed instructions are replayed
    # against the functional trace in batches of this size when the
    # co-simulator is enabled (see ``repro.validation.golden``).
    golden_interval: int = 256

    # Interval metrics (docs/OBSERVABILITY.md): when set, the processor
    # samples its counter/gauge registry every this-many cycles into a
    # time series (``result.metrics``).  ``None`` disables sampling
    # entirely (no per-cycle cost beyond a None check).
    metrics_interval: Optional[int] = None

    def validate(self) -> None:
        """Raise :class:`ConfigError` on inconsistent parameters."""
        if self.n_clusters < 1:
            raise ConfigError("n_clusters must be >= 1")
        # Each bank must hold its share of the initial architectural
        # mapping (half the logical registers, spread over clusters)
        # with headroom for in-flight values.
        per_bank_logical = NUM_LOGICAL_REGS // 2
        min_pregs = (per_bank_logical + self.n_clusters - 1) // self.n_clusters
        if self.pregs_per_cluster <= min_pregs:
            raise ConfigError(
                f"pregs_per_cluster={self.pregs_per_cluster} per bank cannot "
                f"hold the initial mapping of {per_bank_logical} logical "
                f"registers over {self.n_clusters} clusters plus in-flight "
                f"values")
        if self.predictor not in PREDICTORS:
            raise ConfigError(f"unknown predictor {self.predictor!r}")
        if self.steering not in STEERERS:
            raise ConfigError(f"unknown steering {self.steering!r}")
        if self.comm_latency < 1:
            raise ConfigError("comm_latency must be >= 1")
        if self.comm_paths_per_cluster is not None \
                and self.comm_paths_per_cluster < 1:
            raise ConfigError(
                f"comm_paths_per_cluster (--paths) must be >= 1, got "
                f"{self.comm_paths_per_cluster} (omit the flag for an "
                f"unbounded interconnect)")
        if self.golden_interval < 1:
            raise ConfigError("golden_interval must be >= 1")
        if self.metrics_interval is not None and self.metrics_interval < 1:
            raise ConfigError("metrics_interval must be >= 1 cycle "
                              "(or None to disable sampling)")
        if self.deadlock_cycles < 1:
            raise ConfigError("deadlock_cycles must be >= 1")

    def with_overrides(self, **overrides) -> "ProcessorConfig":
        """A copy with the given fields replaced.

        Raises :class:`ConfigError` naming any override that is not a
        field, so a sweep cell that names one fails as deterministic.
        """
        unknown = sorted(set(overrides) - {spec.name for spec in fields(self)})
        if unknown:
            raise ConfigError(
                f"unknown config field(s): {', '.join(unknown)}")
        return replace(self, **overrides)

    def describe(self) -> str:
        """One-line summary used in reports."""
        vp = self.predictor if self.predictor != "none" else "no-predict"
        return (f"{self.n_clusters}c/{self.steering}/{vp}"
                f"/L{self.comm_latency}"
                f"/B{self.comm_paths_per_cluster or 'inf'}")

    def canonical_dict(self) -> dict:
        """A stable, JSON-serializable view of every field.

        Two configs compare equal iff their canonical dicts are equal:
        enum-keyed latency overrides are flattened to sorted
        ``(name, cycles)`` pairs and the static-assignment map to sorted
        ``(pc, cluster)`` pairs, so the representation is independent of
        dict insertion order.  This is the hashing substrate of the
        content-addressed result cache (``repro.analysis.cache``).
        """
        out = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.name == "latencies":
                value = sorted((getattr(op, "name", str(op)), cycles)
                               for op, cycles in value.items())
            elif spec.name == "static_assignment" and value is not None:
                value = sorted(value.items())
            out[spec.name] = value
        return out

    def canonical_json(self) -> str:
        """The canonical dict as deterministic compact JSON."""
        return json.dumps(self.canonical_dict(), sort_keys=True,
                          separators=(",", ":"), default=str)

    def sha256(self) -> str:
        """The machine's digest, as run receipts and snapshot headers
        record it: sha256 over the JSON string encoding of
        :meth:`canonical_json`."""
        blob = json.dumps(self.canonical_json())
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def derive_preset(n_clusters: int) -> tuple:
    """Extend Table 1's scaling rule to any power-of-two cluster count.

    The paper's three presets follow exact formulas — structure sizes
    scale down with the degree of clustering while the totals stay
    constant: IQ = 64/n, physical registers = 32 + 96/n per bank (the
    architectural share plus a scaled in-flight pool), 8/n integer and
    4/n fp units (half mul/div-capable, minimum one), issue width 8/n
    int and 4/n fp.  This lets the "arbitrary number of homogeneous
    clusters" design the paper describes (§5) be simulated beyond the
    three counts it evaluated.
    """
    if n_clusters < 1 or n_clusters > 8 or (n_clusters & (n_clusters - 1)):
        raise ConfigError(
            f"cluster count must be a power of two in 1..8, "
            f"got {n_clusters}")
    iq = max(8, 64 // n_clusters)
    pregs = 32 + 96 // n_clusters
    int_units = max(1, 8 // n_clusters)
    int_muldiv = max(1, int_units // 2)
    fp_units = max(1, 4 // n_clusters)
    fp_muldiv = max(1, fp_units // 2)
    int_width = max(1, 8 // n_clusters)
    fp_width = max(1, 4 // n_clusters)
    return (iq, pregs, int_units, int_muldiv, fp_units, fp_muldiv,
            int_width, fp_width)


def make_config(n_clusters: int, predictor: str = "none",
                steering: str = "baseline", **overrides) -> ProcessorConfig:
    """Build one of the paper's standard (or derived) configurations.

    Args:
        n_clusters: 1, 2 or 4 use the exact Table 1 presets; other
            power-of-two counts up to 8 use :func:`derive_preset`'s
            extension of the same scaling rule.
        predictor: a name in :data:`repro.predictor.PREDICTORS`.
        steering: a name in :data:`repro.steering.STEERERS`.
        **overrides: any :class:`ProcessorConfig` field.
    """
    preset = CLUSTER_PRESETS.get(n_clusters)
    if preset is None:
        preset = derive_preset(n_clusters)
    (iq, pregs, iu, imd, fu, fmd, iw, fw) = preset
    config = ProcessorConfig(
        n_clusters=n_clusters, iq_size=iq, pregs_per_cluster=pregs,
        int_units=iu, int_muldiv=imd, fp_units=fu, fp_muldiv=fmd,
        int_issue_width=iw, fp_issue_width=fw,
        predictor=predictor, steering=steering)
    config = config.with_overrides(**overrides)
    config.validate()
    return config
