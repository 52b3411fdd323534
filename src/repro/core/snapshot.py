"""Full machine snapshot/restore with a versioned on-disk format.

A snapshot captures *everything* the timing model needs to resume a
run bit-identically: rename maps, value-predictor and steering tables,
cache and interconnect state, the in-flight window (ROB, issue queues,
fetch buffer, event wheel), RNG state inside the fault injector, the
golden co-simulator, and the functional executor's architectural state
(registers, sparse memory, ``pc``/``seq`` cursor).  The guarantee —
``save → restore → resume ≡ uninterrupted`` — is enforced by the
hypothesis suite in ``tests/core/test_snapshot_roundtrip.py`` and by
the ``make sample-check`` gate.

Two snapshot kinds share one container format:

* ``machine`` — a mid-run :class:`~repro.core.processor.Processor`
  plus its trace executor; restoring yields a processor that resumes
  the timing loop exactly where it stopped.
* ``executor`` — just a :class:`~repro.isa.executor.FunctionalExecutor`
  (architectural registers + memory + cursor): the cheap fast-forward
  checkpoints that ``repro checkpoint save`` writes and ``repro
  checkpoint resume`` continues from.

On-disk container: one JSON header line (schema tag, format version,
kind, SHA-256 of the compressed payload, resume metadata readable
without unpickling) followed by a zlib-compressed pickle payload.  The
header makes ``repro checkpoint info`` cheap and lets version/integrity
checks refuse a bad file *before* any unpickling happens.

What is deliberately **not** pickled: observers (tracer, profiler) —
they are host-side instrumentation reattached by the caller on restore
— the two derived executor tables (the step functions ``run()``
builds, compiled fast-forward code), rebuilt lazily after restore, and
the processor's decode templates (one per static instruction, holding
bound value-predictor calls), rebuilt as the restored processor
decodes.
Value predictions already made for fetched instructions ride on the
fetch buffer and are restored with it, so none is made twice.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import pickle
import zlib
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterable, Optional, Tuple

from ..errors import ConfigError
from ..fileio import atomic_write
from ..isa.executor import FunctionalExecutor
from .processor import Processor

__all__ = ["SNAPSHOT_SCHEMA", "SNAPSHOT_VERSION", "SnapshotError",
           "SnapshotMeta", "read_snapshot_meta",
           "save_processor", "restore_processor",
           "save_executor", "restore_executor"]

#: Schema tag + format version written into every snapshot header.
#: The version bumps whenever the payload layout changes shape; a
#: mismatch is refused with :class:`SnapshotError` (never a partial or
#: silently-wrong restore).
SNAPSHOT_SCHEMA = "repro-snapshot-v1"
SNAPSHOT_VERSION = 4

#: First bytes of every snapshot file, before the JSON header.
_MAGIC = "repro-snapshot"


class SnapshotError(ConfigError):
    """A snapshot file is missing, corrupt, or from an incompatible
    format version.

    Subclasses :class:`~repro.errors.ConfigError` so the CLI's usage
    exit code (2) and existing ``except ValueError`` call sites apply.
    """


@dataclass
class SnapshotMeta:
    """The JSON header of a snapshot file — readable without unpickling.

    ``sha256`` fingerprints the compressed payload; ``extra`` carries
    caller metadata (workload identity, sampling position, ...) that
    tools like ``repro checkpoint info`` surface verbatim.
    """

    kind: str                      # "machine" | "executor"
    sha256: str
    cycle: int = 0
    committed_insts: int = 0
    seq: int = 0                   # functional cursor (insts drawn)
    config_sha256: Optional[str] = None
    extra: Dict[str, Any] = field(default_factory=dict)
    schema: str = SNAPSHOT_SCHEMA
    version: int = SNAPSHOT_VERSION

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


def _config_sha(config) -> Optional[str]:
    try:
        blob = json.dumps(config.canonical_json(), sort_keys=True,
                          separators=(",", ":"))
    except Exception:
        return None
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------- capture --

def _strip_processor(processor: Processor) -> Dict[str, Any]:
    """Detach the unpicklable/host-side attachments; returns them."""
    saved = {
        "trace": processor.fetch._trace,
        "tracer": processor._tracer,
        "interconnect_tracer": processor.interconnect.tracer,
        "profiler": processor.profiler,
    }
    processor.fetch._trace = None
    processor._tracer = None
    processor.interconnect.tracer = None
    processor.profiler = None
    return saved


def _reattach_processor(processor: Processor, saved: Dict[str, Any]) -> None:
    processor.fetch._trace = saved["trace"]
    processor._tracer = saved["tracer"]
    processor.interconnect.tracer = saved["interconnect_tracer"]
    processor.profiler = saved["profiler"]


def _machine_payload(processor: Processor,
                     executor: Optional[FunctionalExecutor]) -> bytes:
    """Pickle a live (possibly mid-run) processor without disturbing it.

    The strip/reattach dance runs under ``finally`` so the live run
    continues bit-identically whether or not a snapshot was taken —
    the roundtrip suite asserts this.
    """
    if executor is None:
        executor = getattr(processor, "trace_executor", None)
    saved = _strip_processor(processor)
    try:
        return pickle.dumps({"processor": processor, "executor": executor},
                            protocol=pickle.HIGHEST_PROTOCOL)
    finally:
        _reattach_processor(processor, saved)


def _trace_drawn(processor: Processor) -> int:
    """How many trace instructions the front end has consumed."""
    fetch = processor.fetch
    return fetch.fetched_count + (1 if fetch._lookahead is not None else 0)


# --------------------------------------------------------------- container --

def _write_container(path, kind: str, payload: bytes,
                     meta_fields: Dict[str, Any]) -> SnapshotMeta:
    packed = zlib.compress(payload, 1)
    meta = SnapshotMeta(kind=kind,
                        sha256=hashlib.sha256(packed).hexdigest(),
                        **meta_fields)
    header = json.dumps({"magic": _MAGIC, **meta.to_dict()},
                        sort_keys=True, separators=(",", ":"))
    atomic_write(path, header.encode("utf-8") + b"\n" + packed)
    return meta


def read_snapshot_meta(path) -> SnapshotMeta:
    """Parse and validate a snapshot header without touching the payload."""
    path = pathlib.Path(path)
    try:
        with open(path, "rb") as handle:
            line = handle.readline(1 << 16)
    except OSError as error:
        raise SnapshotError(f"cannot read snapshot {path}: {error}") from None
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise SnapshotError(
            f"{path} is not a repro snapshot (bad header)") from None
    if header.get("magic") != _MAGIC or "schema" not in header:
        raise SnapshotError(f"{path} is not a repro snapshot (bad magic)")
    if header.get("schema") != SNAPSHOT_SCHEMA \
            or header.get("version") != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"{path}: incompatible snapshot format "
            f"{header.get('schema')!r} v{header.get('version')!r}; this "
            f"build reads {SNAPSHOT_SCHEMA!r} v{SNAPSHOT_VERSION} — "
            f"re-create the snapshot with the current code")
    header.pop("magic")
    return SnapshotMeta(**header)


def _read_container(path, expect_kind: str) -> Tuple[SnapshotMeta, Any]:
    meta = read_snapshot_meta(path)
    if meta.kind != expect_kind:
        raise SnapshotError(f"{path}: snapshot kind {meta.kind!r}, "
                            f"expected {expect_kind!r}")
    with open(path, "rb") as handle:
        handle.readline(1 << 16)
        packed = handle.read()
    digest = hashlib.sha256(packed).hexdigest()
    if digest != meta.sha256:
        raise SnapshotError(
            f"{path}: payload hash mismatch ({digest[:12]}… != "
            f"{meta.sha256[:12]}…) — truncated or corrupt snapshot")
    try:
        state = pickle.loads(zlib.decompress(packed))
    except Exception as error:
        raise SnapshotError(
            f"{path}: cannot unpickle payload: {error}") from None
    return meta, state


# ------------------------------------------------------- machine snapshots --

def save_processor(path, processor: Processor,
                   executor: Optional[FunctionalExecutor] = None,
                   extra: Optional[Dict[str, Any]] = None) -> SnapshotMeta:
    """Snapshot a (possibly mid-run) processor to *path*.

    *executor* is the trace-producing functional executor; when omitted
    the ``trace_executor`` attribute :func:`repro.core.simulate`
    attaches is used.  A processor fed a materialized trace list
    snapshots too — the header's ``seq`` then records how many trace
    entries were consumed, and :func:`restore_processor` needs the same
    trace passed back in.
    """
    executor = executor or getattr(processor, "trace_executor", None)
    drawn = _trace_drawn(processor)
    if executor is not None and executor.seq != drawn:
        raise SnapshotError(
            f"executor cursor ({executor.seq}) disagrees with the fetch "
            f"engine ({drawn} insts drawn); pass the executor that feeds "
            f"this processor")
    payload = _machine_payload(processor, executor)
    return _write_container(path, "machine", payload, {
        "cycle": processor.cycle,
        "committed_insts": processor.stats.committed_insts,
        "seq": drawn,
        "config_sha256": _config_sha(processor.config),
        "extra": dict(extra or {}),
    })


def restore_processor(path, trace: Optional[Iterable] = None,
                      tracer=None, profiler=None,
                      ) -> Tuple[Processor, Optional[FunctionalExecutor]]:
    """Load a machine snapshot; returns ``(processor, executor)``.

    The processor resumes via ``run()``/``run_until()`` exactly where
    it stopped.  Executor-fed snapshots reattach the resumed functional
    stream automatically; trace-list snapshots need the original
    *trace* back (the consumed prefix is skipped by the recorded
    cursor).  Observers are host-side and never stored: pass *tracer*
    / *profiler* to re-instrument the restored run.
    """
    meta, state = _read_container(path, "machine")
    processor: Processor = state["processor"]
    executor: Optional[FunctionalExecutor] = state.get("executor")
    if executor is not None:
        processor.fetch._trace = executor.run()
        processor.trace_executor = executor
    elif trace is not None:
        import itertools
        processor.fetch._trace = itertools.islice(iter(trace), meta.seq,
                                                  None)
    else:
        raise SnapshotError(
            f"{path} was taken from a trace-list run; pass the original "
            f"trace to restore_processor(..., trace=...)")
    processor._tracer = tracer
    processor.interconnect.tracer = tracer
    processor.profiler = profiler
    return processor, executor


# ------------------------------------------------------ executor snapshots --

def save_executor(path, executor: FunctionalExecutor,
                  extra: Optional[Dict[str, Any]] = None) -> SnapshotMeta:
    """Snapshot just the functional executor (a fast-forward checkpoint)."""
    payload = pickle.dumps(executor, protocol=pickle.HIGHEST_PROTOCOL)
    return _write_container(path, "executor", payload, {
        "seq": executor.seq,
        "extra": dict(extra or {}),
    })


def restore_executor(path) -> FunctionalExecutor:
    """Load an executor checkpoint saved by :func:`save_executor`."""
    _, executor = _read_container(path, "executor")
    return executor
