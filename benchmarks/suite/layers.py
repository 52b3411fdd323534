"""The layer probe: per-layer costs measured on a workload's programs.

A traced run ends with this probe, so every workload reports the same
per-layer metrics, each measured on the programs that workload
simulates.  Host times come from spans and timers in this file around
public calls; the only instrumentation inside the simulator is the
existing ``simulate(profile=True)`` phase profiler.  Rates and shares
vary with the host; the ``sim.*``, hit and miss ratios come from
``SimResult`` and repeat exactly.  A ``sim.*`` value is the mean over
the programs of each program's ratio, as ``headline-sweep`` computes
its own, so on that workload the probe and the sweep agree.

Component costs are measured by replaying the probe traces through
fresh component objects from outside the core, the way the core drives
them: the stride predictor once per integer source operand, the branch
predictor once per conditional branch, the L1D once per memory access
and the L1I once per change of fetch line.
"""

from __future__ import annotations

import os
import time
from collections import deque
from statistics import mean, median
from typing import Dict, List, Sequence

from repro.core import simulate
from repro.frontend import CombinedPredictor
from repro.isa.executor import FunctionalExecutor
from repro.isa.registers import ZERO_REG
from repro.memory import MemoryHierarchy
from repro.obs import PHASES, EventTracer, JsonlSink
from repro.predictor import StridePredictor
from repro.workloads import build_workload

from cases import config_for, trace_of

#: Probe sizes: instructions per program for the core probe and the
#: component replays, and for the functional-executor drain.
PROBE_LENGTH = 4_000
DRAIN_LENGTH = 50_000
#: Timed repetitions of each replay; the median is reported.
REPEATS = 3
PROBE_CONFIGS = ("1cl_none", "4cl_vpb")


def _replay_stride(vp: StridePredictor, traces: List[list]) -> int:
    predict_update = vp.predict_update
    ops = 0
    for trace in traces:
        for dyn in trace:
            for slot, logical in enumerate(dyn.srcs):
                if logical == ZERO_REG or dyn.srcs_fp[slot]:
                    continue
                predict_update(dyn.pc, slot, dyn.src_values[slot])
                ops += 1
    return ops


def _replay_bpred(bpred: CombinedPredictor, traces: List[list]) -> int:
    ops = 0
    for trace in traces:
        for dyn in trace:
            if dyn.is_cond_branch:
                bpred.predict(dyn.pc)
                bpred.update(dyn.pc, dyn.taken)
                ops += 1
    return ops


def _replay_l1d(memory: MemoryHierarchy, traces: List[list]) -> int:
    access = memory.data_latency
    ops = 0
    for trace in traces:
        for dyn in trace:
            if dyn.mem_addr is not None:
                access(dyn.mem_addr, dyn.is_store)
                ops += 1
    return ops


def _replay_l1i(memory: MemoryHierarchy, traces: List[list]) -> int:
    access = memory.fetch_latency
    ops = 0
    for trace in traces:
        last = None
        for dyn in trace:
            line = dyn.pc >> 5
            if line != last:
                access(dyn.pc)
                last = line
                ops += 1
    return ops


def _replay_ns(spans, name: str, make, replay, traces: List[list]) -> float:
    """Median nanoseconds per operation over :data:`REPEATS` replays,
    each through a fresh component built by *make* outside the timer."""
    per_op = []
    for _ in range(REPEATS):
        component = make()
        with spans.span(name, "probe"):
            start = time.perf_counter()
            ops = replay(component, traces)
            per_op.append((time.perf_counter() - start) / ops * 1e9)
    return median(per_op)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _core(traces: Dict[str, list], spans) -> Dict[str, float]:
    """Throughput of plain runs, phase seconds of profiled runs, and the
    simulated ratios of the 4cl stride/vpb cells."""
    out: Dict[str, float] = {}
    seconds = cycles = uops = 0.0
    phases = {phase: 0.0 for phase in PHASES}
    vpb_results = []
    for label in PROBE_CONFIGS:
        config = config_for(label)
        label_s = label_insts = 0.0
        ipcs = []
        for name, trace in traces.items():
            run_id = f"probe/{name}.{label}"
            start = time.perf_counter()
            with spans.span("core.simulate", run_id):
                result = simulate(trace, config)
            elapsed = time.perf_counter() - start
            label_s += elapsed
            label_insts += result.stats.committed_insts
            ipcs.append(result.ipc)
            cycles += result.stats.cycles
            uops += result.stats.issued_uops
            with spans.span("core.simulate_profiled", run_id):
                profiled = simulate(trace, config, profile=True)
            for phase in PHASES:
                phases[phase] += profiled.profile.seconds[phase]
            if label == "4cl_vpb":
                vpb_results.append(result)
        seconds += label_s
        out[f"core.insts_per_s.{label}"] = label_insts / label_s
        out[f"sim.ipc.{label}"] = mean(ipcs)
    out["core.simulate_s"] = seconds
    out["core.ns_per_cycle"] = seconds / cycles * 1e9
    out["core.ns_per_uop"] = seconds / uops * 1e9
    attributed = sum(phases.values())
    for phase in PHASES:
        out[f"core.phase.{phase}_s"] = phases[phase]
        out[f"core.phase.{phase}_share"] = phases[phase] / attributed

    out["sim.comm_per_inst.4cl_vpb"] = mean(r.comm_per_inst
                                            for r in vpb_results)
    vp =[r.vp_stats for r in vpb_results]
    confident = sum(v["confident"] for v in vp)
    out["predictor.vp_hit_ratio"] = _ratio(
        sum(v["hit_ratio"] * v["confident"] for v in vp), confident)
    out["predictor.vp_confident_fraction"] = _ratio(
        confident, sum(v["lookups"] for v in vp))
    bp = [r.bp_stats for r in vpb_results]
    out["frontend.bp_accuracy"] = 1.0 - _ratio(
        sum(b["mispredictions"] for b in bp), sum(b["lookups"] for b in bp))
    for level in ("l1i", "l1d", "l2"):
        caches = [r.cache_stats[level] for r in vpb_results]
        out[f"memory.{level}_miss_rate"] = _ratio(
            sum(c["misses"] for c in caches),
            sum(c["accesses"] for c in caches))
    return out


def _obs(trace: list, path: str, spans) -> Dict[str, float]:
    """JSONL tracing cost on one cell: traced vs untraced, best of two,
    alternated so host drift hits both alike."""
    config = config_for("4cl_vpb")
    plain, traced = [], []
    events = 0
    for _ in range(2):
        with spans.span("core.simulate", "probe/obs.untraced"):
            start = time.perf_counter()
            simulate(trace, config)
            plain.append(time.perf_counter() - start)
        with spans.span("core.simulate", "probe/obs.jsonl"):
            start = time.perf_counter()
            sink = JsonlSink(path, config.describe())
            try:
                simulate(trace, config, tracer=EventTracer(sink))
            finally:
                sink.close()
            traced.append(time.perf_counter() - start)
        events = sink.written
    size = os.path.getsize(path)
    os.unlink(path)
    return {"obs.jsonl_overhead_x": min(traced) / min(plain),
            "obs.ns_per_event": (min(traced) - min(plain)) / events * 1e9,
            "obs.jsonl_events": events, "obs.jsonl_bytes": size}


def probe(programs: Sequence[str], seed: int, spans, scratch_path: str,
          length: int = PROBE_LENGTH,
          drain: int = DRAIN_LENGTH) -> Dict[str, float]:
    """Every probe metric for *programs* at workload seed *seed*.

    *scratch_path* is where the JSONL probe writes (and then removes)
    its trace file.
    """
    out: Dict[str, float] = {}
    start = time.perf_counter()
    traces = {name: trace_of(name, seed, length, spans)
              for name in programs}
    out["workloads.trace_gen_s"] = time.perf_counter() - start

    drained = 0
    drain_s = 0.0
    for name in programs:
        executor = FunctionalExecutor(build_workload(name, seed=seed), drain)
        with spans.span("isa.executor.run", f"probe/{name}"):
            start = time.perf_counter()
            deque(executor.run(), maxlen=0)
            drain_s += time.perf_counter() - start
        drained += executor.seq
    out["isa.executor_insts_per_s"] = drained / drain_s

    out.update(_core(traces, spans))

    config = config_for("4cl_vpb")
    replay = list(traces.values())

    def stride():
        return StridePredictor(config.vp_entries,
                               config.vp_confidence_threshold,
                               two_delta=config.vp_two_delta)

    def memory():
        return MemoryHierarchy(dcache_ports=config.dcache_ports)

    out["predictor.stride_ns"] = _replay_ns(
        spans, "predictor.replay", stride, _replay_stride, replay)
    out["frontend.bpred_ns"] = _replay_ns(
        spans, "frontend.replay", CombinedPredictor, _replay_bpred, replay)
    out["memory.l1d_access_ns"] = _replay_ns(
        spans, "memory.replay", memory, _replay_l1d, replay)
    out["memory.l1i_access_ns"] = _replay_ns(
        spans, "memory.replay", memory, _replay_l1i, replay)

    out.update(_obs(traces[programs[0]], scratch_path, spans))
    return out
