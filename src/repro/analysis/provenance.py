"""Per-run provenance receipts: what ran, where, from which sources.

Every sweep can leave a ``run_receipt.json`` next to its results — a
self-describing record in the shape of the ``build_receipt.json``
exemplar (SNIPPETS.md Snippet 3) that makes any result attributable
after the fact and is the substrate the future distributed experiment
service (ROADMAP item 3) fans jobs out over:

* **identity** — per-cell config canonical hashes
  (:meth:`~repro.core.ProcessorConfig.sha256` of the cell's
  :meth:`~repro.analysis.parallel.SweepCell.config`), workload names,
  per-cell seeds, trace lengths;
* **sources** — the :func:`repro.analysis.cache.code_version` source
  fingerprint plus the git commit (``-dirty`` suffixed when the
  checkout has local changes);
* **execution** — host info, jobs/chunksize, total and per-cell
  wall-clock, cache hit/miss/store counters that match the number of
  simulate calls actually made (validated by
  :func:`repro.obs.schema.validate_receipt`).

Receipts are written atomically (:func:`repro.fileio.atomic_write`),
the same contract the result cache honours, so a crashed writer can
never leave a truncated receipt behind.

Determinism: :meth:`RunReceipt.deterministic_dict` strips the fields
that legitimately vary between hosts and runs (timestamps, host info,
wall-clock, worker topology); what remains is byte-identical between
serial and parallel executions of the same sweep — the tier-1 suite
asserts this.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import subprocess
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from typing import Any, Dict, List, Optional

from ..fileio import atomic_write
from ..obs.schema import RECEIPT_SCHEMA
from ..obs.telemetry import CellTelemetry, SweepMonitor

__all__ = ["RECEIPT_SCHEMA", "RunReceipt", "git_commit", "host_info"]

#: Receipt fields (top-level or per-cell) that legitimately differ
#: between two runs of the same sweep: wall-clock, host identity,
#: worker topology.  ``deterministic_dict`` strips them.
VOLATILE_RECEIPT_FIELDS = frozenset({"created_utc", "host", "run",
                                     "commit"})
VOLATILE_CELL_FIELDS = frozenset({"seconds", "stored"})


def git_commit(repo_root: Optional[os.PathLike] = None) -> Optional[str]:
    """The short HEAD commit (``-dirty`` suffixed), or ``None``.

    Outside a git checkout — or with git unavailable — provenance
    degrades to ``None`` instead of failing the run.
    """
    if repo_root is None:
        repo_root = pathlib.Path(__file__).resolve().parents[3]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=repo_root,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
        if commit is not None:
            dirty = subprocess.run(
                ["git", "status", "--porcelain"], cwd=repo_root,
                capture_output=True, text=True, timeout=10,
            ).stdout.strip()
            if dirty:
                commit += "-dirty"
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return commit


def host_info() -> Dict[str, Any]:
    """Where this run executed (platform, interpreter, core count)."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }


def _cell_record(record: CellTelemetry) -> Dict[str, Any]:
    """One receipt cell entry: the cell's identity and its outcome.

    A cell whose machine does not resolve (its run failed for the same
    reason) still gets an entry, with a ``null`` config hash.
    """
    cell = record.cell
    try:
        config_sha = cell.config().sha256()
    except Exception:
        config_sha = None
    return {
        "key": record.key,
        "workload": cell.workload,
        "config": cell.config_label,
        "config_sha256": config_sha,
        "seed": cell.seed,
        "dataset": cell.dataset,
        "length": cell.length,
        "sampling": (None if cell.sampling is None
                     else cell.sampling.canonical_dict()),
        "seconds": round(record.seconds, 6),
        "cached": record.cached,
        "stored": record.stored,
        "retries": record.retries,
        "ok": record.ok,
    }


@dataclass
class RunReceipt:
    """A self-describing provenance record of one (or more) sweeps."""

    label: str
    created_utc: str
    code_version: str
    commit: Optional[str]
    host: Dict[str, Any]
    run: Dict[str, Any]
    cache: Dict[str, Any]
    counts: Dict[str, Any]
    cells: List[Dict[str, Any]] = field(default_factory=list)
    schema: str = RECEIPT_SCHEMA

    @classmethod
    def from_monitor(cls, monitor: SweepMonitor, label: Optional[str] = None,
                     cache_enabled: Optional[bool] = None,
                     sweeps=None) -> "RunReceipt":
        """Assemble a receipt from everything *monitor* observed.

        A monitor that watched several sweeps (the ``ablations``
        command) yields one receipt whose cells and counters aggregate
        across them; pass *sweeps* (a subset of ``monitor.sweeps``) to
        scope the receipt to specific sweeps — ``run_cells`` uses this
        so a per-sweep receipt under a long-lived monitor covers only
        its own cells.  ``cache_enabled`` defaults to "any cell
        resolved from or entered the cache".
        """
        from .cache import code_version
        if sweeps is None:
            sweeps = monitor.sweeps
        records = [_cell_record(cell) for sweep in sweeps
                   for cell in sweep.cells]
        hits = sum(sweep.cached for sweep in sweeps)
        stores = sum(sweep.stored for sweep in sweeps)
        simulated = sum(sweep.simulated for sweep in sweeps)
        if cache_enabled is None:
            cache_enabled = bool(hits or stores)
        if label is None:
            label = sweeps[0].label if sweeps else "sweep"
        return cls(
            label=label,
            created_utc=datetime.now(timezone.utc)
            .strftime("%Y-%m-%dT%H:%M:%SZ"),
            code_version=code_version(),
            commit=git_commit(),
            host=host_info(),
            run={
                "jobs": max((sweep.jobs for sweep in sweeps), default=1),
                "chunksize": max((sweep.chunksize for sweep in sweeps),
                                 default=1),
                "sweeps": len(sweeps),
                "total_seconds": round(sum(sweep.seconds
                                           for sweep in sweeps), 6),
            },
            cache={
                "enabled": bool(cache_enabled),
                "hits": hits,
                "misses": simulated if cache_enabled else 0,
                "stores": stores,
            },
            counts={
                "cells": len(records),
                "completed": sum(sweep.completed for sweep in sweeps),
                "failed": sum(sweep.failed for sweep in sweeps),
                "simulated": simulated,
            },
            cells=records,
        )

    # ------------------------------------------------------------- views --

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    def deterministic_dict(self) -> Dict[str, Any]:
        """The receipt minus every host/wall-clock-dependent field.

        What remains — cell identities, config hashes, seeds, cache
        and outcome counts, the code fingerprint — must be identical
        between serial and parallel runs of the same sweep.
        """
        data = {key: value for key, value in self.to_dict().items()
                if key not in VOLATILE_RECEIPT_FIELDS}
        data["cells"] = [
            {key: value for key, value in cell.items()
             if key not in VOLATILE_CELL_FIELDS}
            for cell in data["cells"]]
        # Worker-side stores depend on cache state, not the sweep.
        data["cache"] = {key: value
                         for key, value in data["cache"].items()
                         if key != "stores"}
        return data

    def canonical_json(self) -> str:
        """Stable-key-ordered JSON of the full receipt."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2,
                          default=str)

    # --------------------------------------------------------------- I/O --

    def write(self, path) -> pathlib.Path:
        """Write the receipt atomically (temp file + rename)."""
        return atomic_write(path, self.canonical_json() + "\n")

    @staticmethod
    def read(path) -> Dict[str, Any]:
        """Load a receipt file back as a plain dict."""
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
