"""Trace/telemetry/receipt schema validation (``make obs-check``,
``make telemetry-check`` and tests).

Four on-disk formats exist: the per-cycle pipeline trace formats (see
:mod:`repro.obs.sinks`), the sweep telemetry JSONL stream (see
:mod:`repro.obs.telemetry`) and the per-run provenance receipt (see
:mod:`repro.analysis.provenance`).  Every validator parses the whole
artifact, checks structural invariants, and returns a count — raising
:class:`TraceSchemaError` with a precise complaint otherwise.
"""

from __future__ import annotations

import json
from typing import Set

from .events import EVENT_FIELDS, EVENT_NAMES
from .sinks import JSONL_SCHEMA
from .telemetry import TELEMETRY_EVENTS, TELEMETRY_SCHEMA

__all__ = ["RECEIPT_SCHEMA", "TraceSchemaError", "validate_jsonl_trace",
           "validate_chrome_trace", "validate_receipt",
           "validate_telemetry_jsonl"]

#: Schema tag carried by every run receipt
#: (:class:`repro.analysis.provenance.RunReceipt`).
RECEIPT_SCHEMA = "repro-receipt-v1"

_KNOWN_EVENTS: Set[str] = set(EVENT_NAMES)
_REQUIRED_FIELDS = {name: set(fields)
                    for name, fields in zip(EVENT_NAMES, EVENT_FIELDS)}


class TraceSchemaError(ValueError):
    """A trace file violates its declared schema."""


def validate_jsonl_trace(path: str) -> int:
    """Validate a JSONL trace; returns the number of event records."""
    count = 0
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise TraceSchemaError(
                    f"{path}:{lineno}: not valid JSON: {error}") from None
            if lineno == 1:
                if record.get("schema") != JSONL_SCHEMA:
                    raise TraceSchemaError(
                        f"{path}:1: missing/unknown schema header, "
                        f"expected {JSONL_SCHEMA!r}, got {record!r}")
                continue
            name = record.get("event")
            if name not in _KNOWN_EVENTS:
                raise TraceSchemaError(
                    f"{path}:{lineno}: unknown event {name!r}")
            if not isinstance(record.get("cycle"), int):
                raise TraceSchemaError(
                    f"{path}:{lineno}: event missing integer 'cycle'")
            missing = _REQUIRED_FIELDS[name] - set(record)
            if missing:
                raise TraceSchemaError(
                    f"{path}:{lineno}: {name} event missing fields "
                    f"{sorted(missing)}")
            count += 1
    if count == 0:
        raise TraceSchemaError(f"{path}: no event records")
    return count


def validate_chrome_trace(path: str) -> int:
    """Validate a Chrome trace-event file; returns the event count.

    Accepts the object form (``{"traceEvents": [...]}``) the sink
    writes, or a bare event array — both load in Perfetto and
    ``chrome://tracing``.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            obj = json.load(handle)
        except json.JSONDecodeError as error:
            raise TraceSchemaError(f"{path}: not valid JSON: "
                                   f"{error}") from None
    if isinstance(obj, dict):
        events = obj.get("traceEvents")
        if not isinstance(events, list):
            raise TraceSchemaError(
                f"{path}: object form must carry a 'traceEvents' list")
    elif isinstance(obj, list):
        events = obj
    else:
        raise TraceSchemaError(f"{path}: top level must be an object or "
                               f"array, got {type(obj).__name__}")
    if not events:
        raise TraceSchemaError(f"{path}: empty trace")
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            raise TraceSchemaError(f"{path}: traceEvents[{index}] is not "
                                   f"an object")
        ph = event.get("ph")
        if not isinstance(event.get("name"), str) or ph is None:
            raise TraceSchemaError(
                f"{path}: traceEvents[{index}] missing 'name'/'ph'")
        if ph == "M":
            continue  # metadata events carry no timestamp
        if not isinstance(event.get("ts"), (int, float)):
            raise TraceSchemaError(
                f"{path}: traceEvents[{index}] ({event['name']!r}) "
                f"missing numeric 'ts'")
        if ph == "X" and not isinstance(event.get("dur"), (int, float)):
            raise TraceSchemaError(
                f"{path}: traceEvents[{index}] duration slice missing "
                f"'dur'")
    return len(events)


def validate_telemetry_jsonl(path: str) -> int:
    """Validate a sweep telemetry JSONL file; returns the event count.

    Line 1 must be the :data:`~repro.obs.telemetry.TELEMETRY_SCHEMA`
    header; every following line is one typed run event whose payload
    carries the fields :data:`~repro.obs.telemetry.TELEMETRY_EVENTS`
    declares, with a strictly increasing ``seq`` and a numeric ``t``.
    A partially written file (crash-flush) still validates — only the
    lines that made it to disk are checked.
    """
    count = 0
    last_seq = 0
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise TraceSchemaError(
                    f"{path}:{lineno}: not valid JSON: {error}") from None
            if lineno == 1:
                if record.get("schema") != TELEMETRY_SCHEMA:
                    raise TraceSchemaError(
                        f"{path}:1: missing/unknown schema header, "
                        f"expected {TELEMETRY_SCHEMA!r}, got {record!r}")
                continue
            name = record.get("event")
            if name not in TELEMETRY_EVENTS:
                raise TraceSchemaError(
                    f"{path}:{lineno}: unknown telemetry event {name!r}")
            seq = record.get("seq")
            if not isinstance(seq, int) or seq <= last_seq:
                raise TraceSchemaError(
                    f"{path}:{lineno}: 'seq' must be a strictly "
                    f"increasing integer, got {seq!r} after {last_seq}")
            last_seq = seq
            if not isinstance(record.get("t"), (int, float)):
                raise TraceSchemaError(
                    f"{path}:{lineno}: event missing numeric 't'")
            missing = set(TELEMETRY_EVENTS[name]) - set(record)
            if missing:
                raise TraceSchemaError(
                    f"{path}:{lineno}: {name} event missing fields "
                    f"{sorted(missing)}")
            count += 1
    if count == 0:
        raise TraceSchemaError(f"{path}: no telemetry events")
    return count


#: Required receipt sections -> the fields each must carry.
_RECEIPT_SECTIONS = {
    "host": ("platform", "python", "cpu_count"),
    "run": ("jobs", "chunksize", "total_seconds"),
    "cache": ("enabled", "hits", "misses", "stores"),
    "counts": ("cells", "completed", "failed", "simulated"),
}

_RECEIPT_CELL_FIELDS = ("key", "workload", "config", "config_sha256",
                        "seed", "length", "sampling", "seconds", "cached",
                        "ok")

#: A non-null cell ``sampling`` block must carry these fields
#: (:meth:`repro.analysis.sampling.SamplingConfig.canonical_dict`).
_SAMPLING_FIELDS = ("interval", "warmup", "samples", "targets")


def _check_cell_sampling(source: str, index: int, sampling) -> None:
    """A cell's sampling block is null (exact run) or a coherent plan."""
    if sampling is None:
        return
    if not isinstance(sampling, dict):
        raise TraceSchemaError(
            f"{source}: cells[{index}].sampling must be null or an "
            f"object, got {type(sampling).__name__}")
    missing = set(_SAMPLING_FIELDS) - set(sampling)
    if missing:
        raise TraceSchemaError(
            f"{source}: cells[{index}].sampling missing fields "
            f"{sorted(missing)}")
    interval, warmup = sampling["interval"], sampling["warmup"]
    if not isinstance(interval, int) or not isinstance(warmup, int) \
            or not 0 <= warmup < interval:
        raise TraceSchemaError(
            f"{source}: cells[{index}].sampling needs integer "
            f"interval > warmup >= 0, got interval={interval!r} "
            f"warmup={warmup!r}")
    if (sampling["samples"] is None) == (sampling["targets"] is None):
        raise TraceSchemaError(
            f"{source}: cells[{index}].sampling must set exactly one "
            f"of samples/targets")


def validate_receipt(receipt) -> int:
    """Validate a run receipt (dict, or path to one); returns its cell
    count.

    Beyond shape, the internal accounting must be consistent:
    ``completed + failed == cells``, and — when the result cache was
    enabled — ``cache.hits + counts.simulated == counts.cells`` with
    ``cache.misses == counts.simulated``, i.e. the receipt's cache
    counters must match the number of simulate calls the sweep
    actually made.
    """
    source = "<receipt>"
    if not isinstance(receipt, dict):
        source = str(receipt)
        with open(receipt, "r", encoding="utf-8") as handle:
            try:
                receipt = json.load(handle)
            except json.JSONDecodeError as error:
                raise TraceSchemaError(
                    f"{source}: not valid JSON: {error}") from None
    if receipt.get("schema") != RECEIPT_SCHEMA:
        raise TraceSchemaError(
            f"{source}: missing/unknown schema tag, expected "
            f"{RECEIPT_SCHEMA!r}, got {receipt.get('schema')!r}")
    for key in ("label", "created_utc", "code_version"):
        if not isinstance(receipt.get(key), str):
            raise TraceSchemaError(f"{source}: missing string {key!r}")
    if "commit" not in receipt:
        raise TraceSchemaError(f"{source}: missing 'commit' (may be null)")
    for section, fields in _RECEIPT_SECTIONS.items():
        block = receipt.get(section)
        if not isinstance(block, dict):
            raise TraceSchemaError(f"{source}: missing section "
                                   f"{section!r}")
        missing = set(fields) - set(block)
        if missing:
            raise TraceSchemaError(
                f"{source}: section {section!r} missing fields "
                f"{sorted(missing)}")
    cells = receipt.get("cells")
    if not isinstance(cells, list):
        raise TraceSchemaError(f"{source}: missing 'cells' list")
    for index, cell in enumerate(cells):
        if not isinstance(cell, dict):
            raise TraceSchemaError(f"{source}: cells[{index}] is not an "
                                   f"object")
        missing = set(_RECEIPT_CELL_FIELDS) - set(cell)
        if missing:
            raise TraceSchemaError(
                f"{source}: cells[{index}] missing fields "
                f"{sorted(missing)}")
        _check_cell_sampling(source, index, cell.get("sampling"))
    counts = receipt["counts"]
    cache = receipt["cache"]
    if counts["cells"] != len(cells):
        raise TraceSchemaError(
            f"{source}: counts.cells={counts['cells']} but "
            f"{len(cells)} cell records")
    if counts["completed"] + counts["failed"] != counts["cells"]:
        raise TraceSchemaError(
            f"{source}: completed+failed != cells "
            f"({counts['completed']}+{counts['failed']} != "
            f"{counts['cells']})")
    if cache["enabled"]:
        if cache["hits"] + counts["simulated"] != counts["cells"]:
            raise TraceSchemaError(
                f"{source}: cache.hits + simulated != cells "
                f"({cache['hits']}+{counts['simulated']} != "
                f"{counts['cells']})")
        if cache["misses"] != counts["simulated"]:
            raise TraceSchemaError(
                f"{source}: cache.misses={cache['misses']} but "
                f"{counts['simulated']} cells simulated")
    return len(cells)
