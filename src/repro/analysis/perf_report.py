"""Perf-regression dashboard over BENCH_sweep.json + run receipts.

``BENCH_sweep.json`` is the repo's performance trajectory: every
``make bench-wallclock`` / ``make bench-smoke`` run appends one entry.
The file grew organically across PRs, so entries are heterogeneous —
early ones lack provenance, later ones add cache/pool/tracer sections.
This module makes that history *queryable*:

* :func:`normalize_entry` / :func:`append_entry` — the single write
  path for new entries (satellite of PR 6): every entry gains a
  ``schema`` version tag, keys are written in stable sorted order, and
  exact duplicates (identical but for their timestamp) are dropped, so
  the file stays a clean append-only log that this module can always
  parse — including the pre-schema entries already in it.
* :func:`find_regressions` — flags entries whose throughput fell more
  than *threshold* below the best **earlier same-shape** entry.  Shape
  (:func:`shape_key`) is (benchmark, trace length, cell count, core
  count): a 30-cell 4k-instruction sweep on a 2-core host is simply
  not rate-comparable to an 8-cell 1.5k-instruction one, the same rule
  ``bench_smoke``'s throughput guard applies.
* :func:`render_dashboard` — the ``repro report`` markdown: throughput
  trajectory per shape across commits, slowest cells of the latest
  full run, cache warm/cold ratios, tracer overhead trend, regression
  flags, and a summary of any :class:`~repro.analysis.provenance`
  run receipts handed in.

Nothing here imports the simulator — the dashboard renders from JSON
artifacts alone, so it works on a checkout that cannot even run a
sweep (e.g. a CI artifact viewer).
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigError
from ..fileio import atomic_write

__all__ = ["BENCH_SCHEMA", "DEFAULT_THRESHOLD", "SHAPES", "append_entry",
           "dedup_history", "entry_identity", "find_regressions",
           "infer_shape", "load_history", "normalize_entry",
           "render_dashboard", "shape_key"]

#: Schema tag stamped on every entry written through
#: :func:`append_entry`.  v1 is the implicit schema of the organic
#: pre-PR-6 entries (no tag at all); readers treat untagged entries as
#: v1 and keep parsing them.
BENCH_SCHEMA = "bench-sweep-v2"

#: Fractional throughput drop vs the best earlier same-shape entry
#: that counts as a regression; ``bench_smoke``'s throughput guard
#: uses it too.
DEFAULT_THRESHOLD = 0.20

#: Fields ignored when deciding whether two entries are duplicates:
#: re-running an unchanged benchmark twice in a minute produces two
#: entries identical but for these.  ``shape`` is derived
#: deterministically (see :func:`infer_shape`), so a healed and an
#: unhealed copy of the same measurement still deduplicate.
_IDENTITY_VOLATILE = ("timestamp_utc", "schema", "shape")

#: The measurement shapes an entry can be tagged with.  ``serial`` and
#: ``parallel`` are detailed-simulation wall-clock measurements;
#: ``sampled`` entries report *effective* (represented-instructions)
#: rates, which are not comparable to detailed throughput and must
#: never feed the detailed regression guard.
SHAPES = ("serial", "parallel", "sampled")


def infer_shape(entry: dict) -> str:
    """The measurement shape of an entry, for legacy untagged entries.

    Sampled entries are recognized by their effective-rate field or
    sampling section; entries that only measured a parallel sweep are
    ``parallel``; everything else — including the historic
    ``sweep_wallclock``/``smoke_guard`` entries, whose guarded metric
    is the serial rate — is ``serial``.
    """
    shape = entry.get("shape")
    if shape in SHAPES:
        return shape
    if "effective_insts_per_second" in entry or "sampling" in entry:
        return "sampled"
    if ("parallel_insts_per_second" in entry
            and "serial_insts_per_second" not in entry):
        return "parallel"
    return "serial"


def load_history(path) -> List[dict]:
    """The benchmark history at *path* as a list.

    A missing file is an empty history; a single-object file (the
    format's oldest incarnation) is a one-entry history; an unparsable
    file raises :class:`~repro.errors.ConfigError` naming it, so no
    append can overwrite a truncated history.
    """
    path = pathlib.Path(path)
    if not path.exists():
        return []
    try:
        history = json.loads(path.read_text())
    except (OSError, ValueError) as error:
        raise ConfigError(
            f"unreadable benchmark history {path}: {error}") from None
    if isinstance(history, dict):
        return [history]
    if isinstance(history, list):
        return [entry for entry in history if isinstance(entry, dict)]
    return []


def normalize_entry(entry: dict) -> dict:
    """One entry in canonical form: schema-tagged, stably key-ordered.

    Entries predating the schema tag pass through unmodified except
    for ordering — their fields are already what the readers expect.
    Legacy entries with no explicit ``shape`` are healed with the
    inferred one, so every rewrite leaves a fully tagged history.
    """
    normalized = dict(entry)
    normalized.setdefault("schema", BENCH_SCHEMA)
    normalized["shape"] = infer_shape(normalized)
    return {key: normalized[key] for key in sorted(normalized)}


def entry_identity(entry: dict) -> str:
    """A stable fingerprint of an entry's *measurement* content.

    Two runs of an unchanged benchmark differ only in timestamp (and
    possibly the tag a rewrite added); everything else identical means
    the second entry adds no information to the trajectory.
    """
    content = {key: value for key, value in entry.items()
               if key not in _IDENTITY_VOLATILE}
    return json.dumps(content, sort_keys=True, default=str)


def dedup_history(history: Sequence[dict]) -> List[dict]:
    """Drop exact-duplicate entries, keeping each first occurrence."""
    seen = set()
    kept = []
    for entry in history:
        identity = entry_identity(entry)
        if identity in seen:
            continue
        seen.add(identity)
        kept.append(entry)
    return kept


def append_entry(path, entry: dict) -> List[dict]:
    """Append *entry* to the history at *path*; returns the history.

    The whole file is rewritten normalized (schema tags, stable key
    order) and deduplicated, so one append also heals a history that
    accumulated duplicates before this write path existed.  The rewrite
    is atomic.
    """
    history = [normalize_entry(existing) for existing in
               load_history(path)]
    history.append(normalize_entry(entry))
    history = dedup_history(history)
    atomic_write(path, json.dumps(history, indent=2) + "\n")
    return history


def shape_key(entry: dict) -> Tuple:
    """What makes two entries rate-comparable.

    Includes the measurement shape: a ``sampled`` entry's effective
    rate lives on a different axis than detailed serial/parallel
    throughput, so same-shape matching alone keeps sampled entries out
    of the detailed-throughput regression guard.
    """
    return (entry.get("benchmark"), infer_shape(entry),
            entry.get("trace_length"), entry.get("cells"),
            entry.get("cpu_count"))


def find_regressions(history: Sequence[dict],
                     threshold: float = DEFAULT_THRESHOLD,
                     metric: str = "serial_insts_per_second"
                     ) -> List[dict]:
    """Entries whose *metric* dropped > *threshold* vs earlier bests.

    Each entry is judged only against **earlier** entries of the same
    shape, so a deliberate workload change (new cell count, longer
    traces) opens a fresh baseline instead of flagging forever.
    """
    best_by_shape: Dict[Tuple, Tuple[float, Optional[str]]] = {}
    flagged = []
    for index, entry in enumerate(history):
        rate = entry.get(metric)
        if not isinstance(rate, (int, float)) or rate <= 0:
            continue
        shape = shape_key(entry)
        best = best_by_shape.get(shape)
        if best is not None and rate < best[0] * (1.0 - threshold):
            flagged.append({
                "index": index,
                "benchmark": entry.get("benchmark"),
                "commit": entry.get("commit"),
                "timestamp_utc": entry.get("timestamp_utc"),
                "shape": {"shape": shape[1], "trace_length": shape[2],
                          "cells": shape[3], "cpu_count": shape[4]},
                "rate": rate,
                "best": best[0],
                "best_commit": best[1],
                "drop": round(1.0 - rate / best[0], 4),
            })
        if best is None or rate > best[0]:
            best_by_shape[shape] = (rate, entry.get("commit"))
    return flagged


# ------------------------------------------------------------ rendering --

def _fmt_rate(rate) -> str:
    return f"{rate:,.0f}" if isinstance(rate, (int, float)) else "—"


def _fmt(value, spec: str = "") -> str:
    if value is None:
        return "—"
    try:
        return format(value, spec)
    except (TypeError, ValueError):
        return str(value)


def _trajectory_section(lines: List[str], history: Sequence[dict]) -> None:
    lines.append("## Throughput trajectory")
    lines.append("")
    if not history:
        lines.append("_No benchmark history found._")
        lines.append("")
        return
    shapes: Dict[Tuple, List[dict]] = {}
    for entry in history:
        shapes.setdefault(shape_key(entry), []).append(entry)
    for shape in sorted(shapes, key=lambda s: str(s)):
        entries = shapes[shape]
        benchmark, kind, length, cells, cores = shape
        lines.append(f"### {benchmark or 'unknown'} [{kind}] — "
                     f"{cells} cells × "
                     f"{_fmt(length, ',')} insts (cpu_count={cores})")
        lines.append("")
        if kind == "sampled":
            lines.append("| commit | timestamp (UTC) | effective insts/s "
                         "| speedup | max IPC err |")
            lines.append("|---|---|---:|---:|---:|")
            for entry in entries:
                lines.append(
                    f"| {entry.get('commit') or '—'} "
                    f"| {entry.get('timestamp_utc') or '—'} "
                    f"| {_fmt_rate(entry.get('effective_insts_per_second'))} "
                    f"| {_fmt(entry.get('speedup'), '.1f')} "
                    f"| {_fmt(entry.get('max_ipc_error'), '.2%')} |")
        else:
            lines.append("| commit | timestamp (UTC) | serial insts/s "
                         "| parallel insts/s | speedup |")
            lines.append("|---|---|---:|---:|---:|")
            for entry in entries:
                lines.append(
                    f"| {entry.get('commit') or '—'} "
                    f"| {entry.get('timestamp_utc') or '—'} "
                    f"| {_fmt_rate(entry.get('serial_insts_per_second'))} "
                    f"| {_fmt_rate(entry.get('parallel_insts_per_second'))} "
                    f"| {_fmt(entry.get('speedup'), '.2f')} |")
        lines.append("")


def _latest_with(history: Sequence[dict], field: str) -> Optional[dict]:
    for entry in reversed(history):
        if entry.get(field):
            return entry
    return None


def _slowest_section(lines: List[str], history: Sequence[dict]) -> None:
    entry = _latest_with(history, "slowest_cells")
    if entry is None:
        return
    lines.append("## Slowest cells (latest full run)")
    lines.append("")
    lines.append(f"From the `{entry.get('benchmark')}` entry at commit "
                 f"`{entry.get('commit') or 'unknown'}`:")
    lines.append("")
    lines.append("| workload | clusters | seconds |")
    lines.append("|---|---:|---:|")
    for cell in entry["slowest_cells"]:
        lines.append(f"| {cell.get('workload')} | {cell.get('clusters')} "
                     f"| {_fmt(cell.get('seconds'), '.3f')} |")
    lines.append("")


def _cache_section(lines: List[str], history: Sequence[dict]) -> None:
    entries = [entry for entry in history
               if isinstance(entry.get("cache"), dict)]
    if not entries:
        return
    lines.append("## Result-cache cold → warm")
    lines.append("")
    lines.append("| commit | cold s | warm s | warm speedup | warm hits |")
    lines.append("|---|---:|---:|---:|---:|")
    for entry in entries:
        cache = entry["cache"]
        lines.append(
            f"| {entry.get('commit') or '—'} "
            f"| {_fmt(cache.get('cold_seconds'), '.2f')} "
            f"| {_fmt(cache.get('warm_seconds'), '.2f')} "
            f"| {_fmt(cache.get('warm_speedup'), '.1f')} "
            f"| {_fmt(cache.get('warm_hits'))} |")
    lines.append("")


def _tracer_section(lines: List[str], history: Sequence[dict]) -> None:
    entries = [entry for entry in history
               if isinstance(entry.get("tracer_overhead"), dict)]
    if not entries:
        return
    lines.append("## Tracer overhead")
    lines.append("")
    lines.append("| commit | ring | jsonl |")
    lines.append("|---|---:|---:|")
    for entry in entries:
        overhead = entry["tracer_overhead"]
        lines.append(
            f"| {entry.get('commit') or '—'} "
            f"| {_fmt(overhead.get('ring_overhead'), '+.1%')} "
            f"| {_fmt(overhead.get('jsonl_overhead'), '+.1%')} |")
    lines.append("")


def _regression_section(lines: List[str], history: Sequence[dict],
                        threshold: float) -> List[dict]:
    regressions = find_regressions(history, threshold=threshold)
    lines.append(f"## Regressions (> {threshold:.0%} below best "
                 f"same-shape entry)")
    lines.append("")
    if not regressions:
        lines.append("None detected.")
        lines.append("")
        return regressions
    lines.append("| # | benchmark | commit | rate | best (commit) "
                 "| drop |")
    lines.append("|---:|---|---|---:|---|---:|")
    for flag in regressions:
        lines.append(
            f"| {flag['index']} | {flag['benchmark']} "
            f"| {flag.get('commit') or '—'} "
            f"| {_fmt_rate(flag['rate'])} "
            f"| {_fmt_rate(flag['best'])} "
            f"({flag.get('best_commit') or '—'}) "
            f"| {flag['drop']:.1%} |")
    lines.append("")
    return regressions


def _receipt_section(lines: List[str], receipts: Sequence[dict]) -> None:
    if not receipts:
        return
    lines.append("## Run receipts")
    lines.append("")
    lines.append("| label | commit | cells | ok | failed | cache h/m/s "
                 "| total s |")
    lines.append("|---|---|---:|---:|---:|---|---:|")
    for receipt in receipts:
        counts = receipt.get("counts", {})
        cache = receipt.get("cache", {})
        run = receipt.get("run", {})
        lines.append(
            f"| {receipt.get('label', '—')} "
            f"| {receipt.get('commit') or '—'} "
            f"| {_fmt(counts.get('cells'))} "
            f"| {_fmt(counts.get('completed'))} "
            f"| {_fmt(counts.get('failed'))} "
            f"| {_fmt(cache.get('hits'))}/{_fmt(cache.get('misses'))}/"
            f"{_fmt(cache.get('stores'))} "
            f"| {_fmt(run.get('total_seconds'), '.2f')} |")
    lines.append("")


def render_dashboard(history: Sequence[dict],
                     receipts: Sequence[dict] = (),
                     threshold: float = DEFAULT_THRESHOLD) -> str:
    """The full markdown dashboard; see module docstring for sections."""
    lines: List[str] = ["# Sweep performance dashboard", ""]
    lines.append(f"{len(history)} benchmark entr"
                 f"{'y' if len(history) == 1 else 'ies'}, "
                 f"{len(receipts)} receipt(s).")
    lines.append("")
    _regression_section(lines, history, threshold)
    _trajectory_section(lines, history)
    _slowest_section(lines, history)
    _cache_section(lines, history)
    _tracer_section(lines, history)
    _receipt_section(lines, receipts)
    return "\n".join(lines).rstrip() + "\n"
