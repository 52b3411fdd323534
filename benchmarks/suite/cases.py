"""The benchmark's three workloads.

Each workload is one closed-loop client in one process: a round runs
its cells one after another, and the next round starts when the
previous one returns.  The workload seed goes to
``build_workload(seed=...)`` or ``SweepCell.seed``; every cell starts
with empty caches and predictors.

A workload object is built with its sizes as arguments, so the smoke
test can run each one tiny.  ``setup`` does everything before the first
timed call; ``run_round`` runs one round, timing each of its units
(a cell, or one program's cells of the sweep) on a
:class:`hostspeed.HostClock`, and returns a :class:`Round`; ``check``
lists what is wrong with a round's outputs.  Only public functions of
``repro`` are called.
"""

from __future__ import annotations

import gc
import hashlib
import json
from dataclasses import dataclass, field
from statistics import mean
from typing import Dict, List, Optional, Sequence

from repro.analysis.cache import use_cache
from repro.analysis.experiments import ErrorLedger
from repro.analysis.parallel import SweepCell, run_cells
from repro.analysis.sampling import SamplingConfig
from repro.core import make_config, simulate
from repro.isa.executor import FunctionalExecutor
from repro.workloads import build_workload, clear_trace_cache, workload_names

#: Configurations by label: (clusters, value predictor, steering).
CONFIGS = {
    "1cl_none": (1, "none", "baseline"),
    "1cl_stride": (1, "stride", "baseline"),
    "2cl_none": (2, "none", "baseline"),
    "2cl_vpb": (2, "stride", "vpb"),
    "4cl_none": (4, "none", "baseline"),
    "4cl_vpb": (4, "stride", "vpb"),
}

#: The paper's headline numbers (§1, §6) the sweep is compared with.
PAPER_IPCR4_VPB = 0.77
PAPER_COMM4_VPB = 0.11

#: Result-dict keys of a sampled run that measure the host, not the
#: simulated machine.
_HOST_KEYS = ("wall_seconds", "effective_insts_per_second", "checkpoints")


def config_for(label: str):
    clusters, predictor, steering = CONFIGS[label]
    return make_config(clusters, predictor=predictor, steering=steering)


def trace_of(name: str, seed: int, length: int, spans) -> list:
    """Build workload *name* and execute it into a DynInst list."""
    with spans.span("workloads.build", name):
        program = build_workload(name, seed=seed)
    with spans.span("workloads.trace", name):
        return list(FunctionalExecutor(program, length).run())


def digest(results: Dict[str, dict]) -> str:
    """sha256 over a round's result dicts, in key order."""
    blob = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class Round:
    """What one timed round produced."""

    #: Deterministic result dict per cell key.
    results: Dict[str, dict]
    #: Reference-host seconds per cell, in cell order.
    cell_seconds: List[float]
    #: Simulated instructions the round represents.
    insts: int
    #: Reference-host seconds of the round's timed units, and their
    #: wall seconds (the kernel runs between units are in neither).
    seconds: float = 0.0
    wall: float = 0.0
    failed: int = 0
    #: Workload-specific per-layer values observed during the round.
    layer: Dict[str, float] = field(default_factory=dict)

    def add(self, unit) -> None:
        """Count one timed unit (a :class:`hostspeed.Unit`)."""
        self.seconds += unit.seconds
        self.wall += unit.wall

    @property
    def attempted(self) -> int:
        return len(self.cell_seconds)


class Workload:
    """Interface shared by the three workloads."""

    name: str
    #: Programs the round simulates; the layer probe replays these.
    programs: Sequence[str]

    def setup(self, seed: int, spans) -> None:
        self.seed = seed

    def run_round(self, spans, clock) -> Round:
        raise NotImplementedError

    def check(self, rnd: Round) -> List[str]:
        return []

    def sim_metrics(self, results: Dict[str, dict]) -> Dict[str, float]:
        """Simulated-machine values, named ``sim.*``; identical under any
        change that only touches host speed."""
        out = {}
        for key, result in results.items():
            out[f"sim.ipc.{key}"] = result["ipc"]
            out[f"sim.comm_per_inst.{key}"] = result["comm_per_inst"]
        return out

    def fidelity(self, results: Dict[str, dict],
                 reference: dict) -> Dict[str, float]:
        """Gaps to published or reference numbers (deterministic)."""
        return {}


class DetailedSerial(Workload):
    name = "detailed-serial"
    #: No value prediction and no copies, versus prediction, copies and
    #: the interconnect: two different uses of the cycle loop.
    configs = ("1cl_none", "4cl_vpb")

    def __init__(self, programs: Sequence[str] = (
            "cjpeg", "epicdec", "g721enc", "gsmdec", "rawcaudio",
            "mesatexgen", "mpeg2enc", "pgpenc"),
            length: int = 16_000) -> None:
        self.programs = tuple(programs)
        self.length = length

    def setup(self, seed: int, spans) -> None:
        super().setup(seed, spans)
        self.traces = {name: trace_of(name, seed, self.length, spans)
                       for name in self.programs}

    def run_round(self, spans, clock) -> Round:
        rnd = Round({}, [], 0)
        for label in self.configs:
            config = config_for(label)
            for name in self.programs:
                key = f"{name}.{label}"
                with clock.unit() as unit, spans.span("core.simulate", key):
                    result = simulate(self.traces[name], config)
                rnd.add(unit)
                rnd.cell_seconds.append(unit.seconds)
                rnd.results[key] = result.to_dict()
                rnd.insts += rnd.results[key]["committed_insts"]
        return rnd

    def check(self, rnd: Round) -> List[str]:
        problems = []
        for name, trace in self.traces.items():
            for label in self.configs:
                committed = rnd.results[f"{name}.{label}"]["committed_insts"]
                if committed != len(trace):
                    problems.append(f"{name}.{label}: committed {committed}"
                                    f" of {len(trace)} instructions")
        return problems


#: The ``run_headline`` grid, in its order.
HEADLINE_CONFIGS = ("1cl_none", "1cl_stride", "2cl_none", "2cl_vpb",
                    "4cl_none", "4cl_vpb")


class HeadlineSweep(Workload):
    name = "headline-sweep"

    def __init__(self, programs: Optional[Sequence[str]] = None,
                 length: int = 4_000) -> None:
        self.programs = tuple(programs or workload_names())
        self.length = length

    def setup(self, seed: int, spans) -> None:
        super().setup(seed, spans)
        #: One program's six cells per ``run_cells`` call.
        self.chunks = [[SweepCell(key=f"{name}.{label}", workload=name,
                                  n_clusters=CONFIGS[label][0],
                                  predictor=CONFIGS[label][1],
                                  steering=CONFIGS[label][2],
                                  length=self.length, seed=seed)
                        for label in HEADLINE_CONFIGS]
                       for name in self.programs]

    def run_round(self, spans, clock) -> Round:
        # An empty trace cache each round, so every round pays trace
        # generation, as a user's single regeneration does.  One job:
        # the serial sweep, `repro headline`'s default.
        clear_trace_cache()
        rnd = Round({}, [], 0)
        ledger = ErrorLedger()
        with use_cache(None):
            for chunk in self.chunks:
                timings: Dict[str, float] = {}
                with clock.unit() as unit, \
                        spans.span("analysis.run_cells", chunk[0].workload):
                    # With a ledger, failed cells are left out of the
                    # results instead of raising.
                    sims = run_cells(chunk, jobs=1, ledger=ledger,
                                     timings=timings, label="bench-headline")
                rnd.add(unit)
                rnd.cell_seconds.extend(timings[cell.key] * unit.factor
                                        for cell in chunk)
                rnd.failed += len(chunk) - len(sims)
                for key, sim in sims.items():
                    rnd.results[key] = sim.to_dict()
                    rnd.insts += rnd.results[key]["committed_insts"]
                # Outside the timed unit, as after every round: without
                # it the reference cycles of a round's 90 simulations
                # pile up, and peak memory moves by 30% with the seed.
                gc.collect()
        return rnd

    def check(self, rnd: Round) -> List[str]:
        problems = [f"{key}: committed {result['committed_insts']} of "
                    f"{self.length} instructions"
                    for key, result in rnd.results.items()
                    if result["committed_insts"] != self.length]
        if rnd.failed:
            problems.append(f"{rnd.failed} cell(s) failed")
        return problems

    def _means(self, results: Dict[str, dict], field_name: str,
               label: str) -> float:
        return mean(results[f"{name}.{label}"][field_name]
                    for name in self.programs)

    def sim_metrics(self, results: Dict[str, dict]) -> Dict[str, float]:
        out = {f"sim.ipc.{label}": self._means(results, "ipc", label)
               for label in HEADLINE_CONFIGS}
        for label in ("4cl_none", "4cl_vpb"):
            out[f"sim.comm_per_inst.{label}"] = self._means(
                results, "comm_per_inst", label)
        out["sim.copies_per_inst.4cl_vpb"] = self._means(
            results, "copies_per_inst", "4cl_vpb")
        out["sim.imbalance.4cl_vpb"] = self._means(
            results, "imbalance", "4cl_vpb")
        vpb = [results[f"{name}.4cl_vpb"] for name in self.programs]
        out["sim.mispredicted_operands_per_inst.4cl_vpb"] = (
            sum(r["mispredicted_operands"] for r in vpb)
            / sum(r["committed_insts"] for r in vpb))
        causes = sorted({cause for r in vpb for cause in r["decode_stalls"]})
        for cause in causes:
            out[f"sim.decode_stalls.{cause}"] = sum(
                r["decode_stalls"].get(cause, 0) for r in vpb)
        return out

    def fidelity(self, results: Dict[str, dict],
                 reference: dict) -> Dict[str, float]:
        ipcr4 = (self._means(results, "ipc", "4cl_vpb")
                 / self._means(results, "ipc", "1cl_stride"))
        comm4 = self._means(results, "comm_per_inst", "4cl_vpb")
        return {"ipcr4_vpb": ipcr4,
                "ipcr4_vpb_gap": abs(ipcr4 - PAPER_IPCR4_VPB),
                "comm4_vpb": comm4,
                "comm4_vpb_gap": abs(comm4 - PAPER_COMM4_VPB)}


class Sampled1M(Workload):
    name = "sampled-1m"
    config = "2cl_vpb"

    def __init__(self, programs: Sequence[str] = (
            "gsmdec", "cjpeg", "mesatexgen", "pgpdec"),
            length: int = 1_000_000,
            sampling: SamplingConfig = SamplingConfig(
                interval=1200, warmup=200, samples=16)) -> None:
        self.programs = tuple(programs)
        self.length = length
        self.sampling = sampling

    def run_round(self, spans, clock) -> Round:
        config = config_for(self.config)
        rnd = Round({}, [], 0, layer={"sampling.detailed_insts": 0,
                                      "sampling.ff_insts": 0,
                                      "sampling.windows": 0})
        layer = rnd.layer
        for name in self.programs:
            with clock.unit() as unit:
                # A Program's memory image is mutated by execution, so
                # every round builds its own.
                with spans.span("workloads.build", name):
                    program = build_workload(name, seed=self.seed)
                with spans.span("sampling.simulate_sampled", name):
                    result = simulate(program, config,
                                      max_instructions=self.length,
                                      sampling=self.sampling,
                                      workload_name=name)
            rnd.add(unit)
            rnd.cell_seconds.append(unit.seconds)
            rnd.results[name] = {key: value for key, value
                                 in result.to_dict().items()
                                 if key not in _HOST_KEYS}
            rnd.insts += rnd.results[name]["total_insts"]
            layer["sampling.detailed_insts"] += result.detailed_insts
            layer["sampling.ff_insts"] += result.ff_insts
            layer["sampling.windows"] += len(result.windows)
            layer[f"sampling.ipc_ci95.{name}"] = result.ipc_ci95
        return rnd

    def check(self, rnd: Round) -> List[str]:
        problems = []
        for name, result in rnd.results.items():
            if result["total_insts"] != self.length:
                problems.append(f"{name}: represents {result['total_insts']}"
                                f" of {self.length} instructions")
            if len(result["windows"]) != self.sampling.samples:
                problems.append(f"{name}: {len(result['windows'])} of "
                                f"{self.sampling.samples} windows measured")
            if not 0.0 < result["ipc"] <= 16.0:
                problems.append(f"{name}: implausible IPC {result['ipc']}")
        return problems

    def sim_metrics(self, results: Dict[str, dict]) -> Dict[str, float]:
        return {f"sim.sampled_ipc.{name}": result["ipc"]
                for name, result in results.items()}

    def fidelity(self, results: Dict[str, dict],
                 reference: dict) -> Dict[str, float]:
        """Error against the detailed 1M-instruction model, when
        ``reference.py`` has recorded it for this seed."""
        ref = reference.get("sampled_reference_ipc", {}).get(str(self.seed))
        if (not ref or self.length != reference.get("sampled_length")
                or self.config != reference.get("sampled_config")
                or any(name not in ref for name in results)):
            return {}
        errors = {name: abs(result["ipc"] - ref[name]) / ref[name]
                  for name, result in results.items()}
        out = {f"sampled_ipc_err.{name}": error
               for name, error in errors.items()}
        out["sampled_ipc_err"] = mean(errors.values())
        return out


WORKLOADS = {cls.name: cls for cls in
             (DetailedSerial, HeadlineSweep, Sampled1M)}
