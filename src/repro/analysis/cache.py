"""Content-addressed on-disk cache of sweep simulation results.

The paper's evaluation is a large cross-product sweep (6 configurations
x 1/2/4 clusters x the Mediabench suite), and every experiment
re-simulates cells that earlier experiments already ran — the 1-cluster
reference cells alone appear in Figures 2, 3 and the headline table.
The simulator is deterministic, so a cell's :class:`~repro.core.SimResult`
is a pure function of its inputs; this module memoizes that function on
disk.

Keying
------

A cell's cache key is the SHA-256 of a canonical JSON payload covering
*everything* the result depends on:

* the resolved :class:`~repro.core.ProcessorConfig`
  (:meth:`~repro.core.ProcessorConfig.canonical_json` — overrides
  applied, enum keys flattened, order-independent),
* the workload name, input dataset, generation seed and trace length,
* a code fingerprint (:func:`code_version`) hashing every ``repro``
  source file, so any change to the simulator, the ISA or the workload
  generators invalidates the whole cache automatically,
* a cache schema tag (:data:`CACHE_SCHEMA`).

Results are stored as pickles under ``<root>/<key[:2]>/<key>.pkl`` and
written atomically (temp file + rename), so a crashed or concurrent
sweep can never leave a truncated entry behind; unreadable entries are
treated as misses and deleted.

Opt-in wiring
-------------

Caching is **off by default** — ``repro.analysis.parallel.run_cells``
consults, in order: an explicit ``cache=`` argument, the innermost
:func:`use_cache` context (the CLI's ``--cache-dir``), then the
``REPRO_CACHE`` environment variable (a directory path, or ``1`` for
the default ``.repro_cache``).  Only plain sweep cells are cached —
runs with golden checking, fault injection or observers attached never
go through this path.  Workers never touch the cache: ``run_cells``
looks cells up and stores fresh results in the sweep's parent process.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

from ..errors import ConfigError
from ..fileio import atomic_write

__all__ = ["CACHE_SCHEMA", "DEFAULT_CACHE_DIR", "CacheStats",
           "ResultCache", "active_cache", "cell_key", "code_version",
           "default_cache", "resolve_cache", "use_cache"]

#: Bump when the on-disk entry format changes (keys include it, so old
#: entries simply stop matching instead of unpickling wrongly).
CACHE_SCHEMA = "repro-cache-v1"

#: Directory used when ``REPRO_CACHE`` enables caching without naming one.
DEFAULT_CACHE_DIR = ".repro_cache"

_TRUTHY = {"1", "true", "yes", "on"}
_FALSY = {"", "0", "false", "no", "off"}

_code_version: Optional[str] = None


def code_version() -> str:
    """Fingerprint of every ``repro`` source file (cached per process).

    Hashing the sources — rather than trusting a hand-bumped version
    string — means editing the simulator, a predictor, or a workload
    generator invalidates stale entries without anyone remembering to.
    """
    global _code_version
    if _code_version is None:
        import repro
        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
        _code_version = digest.hexdigest()[:16]
    return _code_version


def cell_key(cell) -> str:
    """The content hash of a :class:`~repro.analysis.parallel.SweepCell`.

    Hashes the cell's fully resolved machine (:meth:`SweepCell.config
    <repro.analysis.parallel.SweepCell.config>`, the config the worker
    simulates), so two cells that differ only in override spelling but
    resolve to the same machine share a key.  Needs no cache instance.
    Raises whatever ``make_config`` raises for an invalid cell; callers
    treat it as uncacheable and let the normal execution path report
    the error.
    """
    payload = {
        "schema": CACHE_SCHEMA,
        "code": code_version(),
        "config": cell.config().canonical_json(),
        "workload": cell.workload,
        "dataset": cell.dataset,
        "seed": cell.seed,
        "length": cell.length,
    }
    if cell.sampling is not None:
        # Sampled estimates are a different observable than exact runs
        # of the same cell — the sampling plan is part of the result's
        # identity.
        payload["sampling"] = cell.sampling.canonical_dict()
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss/store counters for one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0

    def render(self) -> str:
        return (f"{self.hits} hit(s), {self.misses} miss(es), "
                f"{self.stores} store(s)")


class ResultCache:
    """Content-addressed store of pickled :class:`~repro.core.SimResult`.

    One instance wraps one directory; counters accumulate over its
    lifetime (a sweep creates a cache, runs, then surfaces
    ``cache.stats``).  Instances are cheap — the directory is created
    lazily on the first store.  Storage only: entries are named by
    :func:`cell_key`, and the sweep runner reports lookups and stores
    as telemetry events.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.stats = CacheStats()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    # ------------------------------------------------------ get/put/clear --

    def get(self, key: str):
        """The cached result for *key*, or ``None`` (counted as a miss).

        A corrupt or unreadable entry (interrupted write predating the
        atomic-rename scheme, disk fault) is deleted and reported as a
        miss rather than poisoning the sweep.
        """
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                result = pickle.load(handle)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except Exception:
            try:
                path.unlink()
            except OSError:
                pass
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return result

    def put(self, key: str, result) -> None:
        """Store *result* under *key* atomically (:func:`atomic_write`)."""
        atomic_write(self._path(key),
                     pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))
        self.stats.stores += 1

    def entries(self) -> List[Path]:
        """Every entry file currently on disk."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*/*.pkl"))

    def size_bytes(self) -> int:
        return sum(path.stat().st_size for path in self.entries())

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def describe(self) -> str:
        entries = self.entries()
        size = sum(path.stat().st_size for path in entries)
        return (f"cache at {self.root}: {len(entries)} entr"
                f"{'y' if len(entries) == 1 else 'ies'}, "
                f"{size / 1024:.1f} KiB")


# ------------------------------------------------------- default wiring --

_ACTIVE: List[Optional[ResultCache]] = []


@contextmanager
def use_cache(cache: Optional[ResultCache]):
    """Make *cache* the default for ``run_cells`` calls in this block.

    ``use_cache(None)`` explicitly disables caching inside the block,
    shadowing any ``REPRO_CACHE`` environment setting.
    """
    _ACTIVE.append(cache)
    try:
        yield cache
    finally:
        _ACTIVE.pop()


def active_cache() -> Optional[ResultCache]:
    """The innermost :func:`use_cache` cache, if any block is active."""
    return _ACTIVE[-1] if _ACTIVE else None


def default_cache() -> Optional[ResultCache]:
    """The cache ``run_cells`` uses absent an explicit argument.

    An active :func:`use_cache` block wins even when it holds ``None``
    (explicit disable); otherwise the ``REPRO_CACHE`` environment
    opt-in applies.
    """
    if _ACTIVE:
        return _ACTIVE[-1]
    return resolve_cache()


def resolve_cache(cache_dir: Optional[str] = None
                  ) -> Optional[ResultCache]:
    """Resolve the opt-in cache directory to a :class:`ResultCache`.

    Explicit *cache_dir* wins; otherwise ``REPRO_CACHE`` is consulted:
    unset or falsy ("", "0", "false", ...) disables caching, a truthy
    flag ("1", "true", ...) enables it at :data:`DEFAULT_CACHE_DIR`,
    and anything else is taken as the directory path itself.
    """
    if cache_dir is not None:
        if not str(cache_dir).strip():
            raise ConfigError("cache directory must be a non-empty path")
        return ResultCache(cache_dir)
    raw = os.environ.get("REPRO_CACHE")
    if raw is None or raw.strip().lower() in _FALSY:
        return None
    if raw.strip().lower() in _TRUTHY:
        return ResultCache(DEFAULT_CACHE_DIR)
    return ResultCache(raw)
