"""The workload suite registry (the stand-in for Table 2).

Maps every Mediabench program the paper evaluated to its synthetic
stand-in, with the category and the paper's reported dynamic instruction
count for reference.  :func:`workload_trace` executes a stand-in and
caches the resulting dynamic trace so that the many configurations of a
benchmark sweep replay the *identical* instruction stream.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..errors import WorkloadError
from ..isa.executor import FunctionalExecutor
from ..isa.instruction import DynInst
from ..isa.program import Program
from .media_3d import build_mesamipmap, build_mesaosdemo, build_mesatexgen
from .media_audio import (build_g721enc, build_gsmdec, build_gsmenc,
                          build_rasta, build_rawcaudio)
from .media_crypto import build_pgpdec, build_pgpenc
from .media_image import (build_cjpeg, build_djpeg, build_epicdec,
                          build_epicenc)
from .media_video import build_mpeg2enc

__all__ = ["WorkloadSpec", "SUITE", "DATASET_OFFSETS", "workload_names",
           "build_workload", "workload_trace", "clear_trace_cache",
           "DEFAULT_TRACE_LENGTH", "TRACE_CACHE_MAX"]

#: Default dynamic-trace length for experiments.  The paper ran 6M-440M
#: instructions per benchmark on a C simulator; a Python cycle-level
#: model needs reduced but steady-state-representative runs (every
#: stand-in is periodic well below this length).
DEFAULT_TRACE_LENGTH = 12_000

#: Input datasets: like Mediabench's per-benchmark input files, each
#: stand-in can run a second, differently seeded input to check input
#: sensitivity.
DATASET_OFFSETS = {"test": 0, "train": 5000}

#: Seed stride: far above any dataset offset, so (dataset, seed) pairs
#: never collide in the generators' seed space.
SEED_STRIDE = 100_003


class WorkloadSpec:
    """One suite entry.

    Attributes:
        name: Mediabench program name (Table 2).
        category: paper's workload category.
        paper_minsts: dynamic instructions (millions) in Table 2.
        builder: callable(offset) returning the stand-in Program; the
            offset shifts every data generator's seed (see
            :func:`build_workload`).
    """

    def __init__(self, name: str, category: str, paper_minsts: float,
                 builder: Callable[[int], Program]) -> None:
        self.name = name
        self.category = category
        self.paper_minsts = paper_minsts
        self.builder = builder

    def __repr__(self) -> str:
        return f"<WorkloadSpec {self.name} ({self.category})>"


#: Table 2, in paper order.
SUITE: Dict[str, WorkloadSpec] = {
    spec.name: spec for spec in [
        WorkloadSpec("cjpeg", "image", 18.8, build_cjpeg),
        WorkloadSpec("djpeg", "image", 6.0, build_djpeg),
        WorkloadSpec("epicdec", "image", 11.1, build_epicdec),
        WorkloadSpec("epicenc", "image", 70.6, build_epicenc),
        WorkloadSpec("g721enc", "audio", 440.6, build_g721enc),
        WorkloadSpec("gsmdec", "audio", 115.1, build_gsmdec),
        WorkloadSpec("gsmenc", "audio", 307.1, build_gsmenc),
        WorkloadSpec("mesamipmap", "3D graphics", 75.2, build_mesamipmap),
        WorkloadSpec("mesaosdemo", "3D graphics", 29.7, build_mesaosdemo),
        WorkloadSpec("mesatexgen", "3D graphics", 129.4, build_mesatexgen),
        WorkloadSpec("mpeg2enc", "video", 222.0, build_mpeg2enc),
        WorkloadSpec("pgpdec", "encryption", 108.6, build_pgpdec),
        WorkloadSpec("pgpenc", "encryption", 130.6, build_pgpenc),
        WorkloadSpec("rasta", "audio", 26.4, build_rasta),
        WorkloadSpec("rawcaudio", "audio", 8.7, build_rawcaudio),
    ]
}


def workload_names() -> List[str]:
    """Suite names in Table 2 order."""
    return list(SUITE.keys())


def build_workload(name: str, dataset: str = "test",
                   seed: int = 0) -> Program:
    """Build the stand-in program for Mediabench benchmark *name*.

    *dataset* selects the input ("test" or "train"), like Mediabench's
    per-benchmark input files (Table 2's testimg.ppm, clinton.pcm, ...).
    *seed* varies the input data deterministically within a dataset
    (seed 0 is the canonical input).  Generation is a pure function of
    (name, dataset, seed) — no global RNG state is consulted — so two
    processes building the same workload always produce the identical
    program.  The pair reaches the builder as one offset,
    ``DATASET_OFFSETS[dataset] + seed * SEED_STRIDE``.
    """
    try:
        spec = SUITE[name]
    except KeyError:
        raise WorkloadError(f"unknown workload {name!r}; choose from "
                            f"{workload_names()}") from None
    if dataset not in DATASET_OFFSETS:
        raise WorkloadError(f"unknown dataset {dataset!r}; choose from "
                            f"{sorted(DATASET_OFFSETS)}")
    return spec.builder(DATASET_OFFSETS[dataset] + seed * SEED_STRIDE)


_trace_cache: Dict[Tuple[str, int, str, int], List[DynInst]] = {}

#: Longest trace :func:`workload_trace` will memoize.  A cached record
#: costs 183 bytes (tracemalloc over the eight 16k traces of the
#: benchmark's ``detailed-serial``: an 80-byte DynInst plus its source
#: values, result and address), so a trace at this bound pins about
#: 35 MiB and a million-instruction one would pin 175 MiB per
#: (workload, length) key.  Above this bound the list is still
#: returned, just not retained — and callers running at that scale
#: should stream ``FunctionalExecutor(build_workload(...), n).run()``
#: or hand the simulator a :class:`~repro.isa.program.Program`.
TRACE_CACHE_MAX = 200_000


def workload_trace(name: str,
                   max_instructions: int = DEFAULT_TRACE_LENGTH,
                   dataset: str = "test", seed: int = 0) -> List[DynInst]:
    """The dynamic trace of *name*, cached per (name, length, dataset,
    seed).

    Reusing the cached list across simulator configurations keeps every
    comparison on the exact same instruction stream, like the paper's
    fixed binaries did.  Traces longer than :data:`TRACE_CACHE_MAX` are
    generated but not memoized; for bounded-memory million-instruction
    runs stream ``FunctionalExecutor(build_workload(...), n).run()``.
    """
    key = (name, max_instructions, dataset, seed)
    trace = _trace_cache.get(key)
    if trace is None:
        program = build_workload(name, dataset=dataset, seed=seed)
        trace = list(FunctionalExecutor(program, max_instructions).run())
        if max_instructions <= TRACE_CACHE_MAX:
            _trace_cache[key] = trace
    return trace


def clear_trace_cache() -> None:
    """Drop all cached traces (tests use this to bound memory)."""
    _trace_cache.clear()
