"""Timing-model fingerprint: the merge gate for simulator speed changes.

A change that only makes the simulator faster must leave every
simulated statistic and every pipeline event unchanged.  This test
runs a grid of short-trace cells that covers every cluster count
(1/2/4/8), every value predictor, every steering scheme, a slow
interconnect, a real BTB, copy-issue and rename ablations, fault
injection and golden co-simulation, and pins one sha256 digest over
their result dicts.  A second digest pins the full event stream of a
few traced 1- and 4-cluster cells.

A change that is meant to alter the simulated machine moves these
digests legitimately; recompute them with ``python
tests/core/test_fingerprint.py`` and say why in the change.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

from repro.core import make_config, simulate
from repro.obs import EventTracer, ListSink
from repro.steering import profile_static_assignment
from repro.validation.faults import FaultPlan
from repro.workloads import workload_trace

LENGTH = 1_200

PREDICTORS = ("none", "stride", "context", "hybrid", "perfect")
STEERINGS = ("baseline", "modified", "vpb", "round-robin", "balance-only",
             "dependence-only", "static")
WORKLOADS = ("cjpeg", "gsmdec", "mesatexgen", "rawcaudio", "epicdec",
             "mpeg2enc", "pgpenc", "g721enc")


def _cells():
    """(key, workload, clusters, predictor, steering, overrides, kwargs)."""
    cells = []

    def add(workload, clusters, predictor, steering, overrides=None,
            **kwargs):
        key = (f"{workload}.{clusters}cl.{predictor}.{steering}"
               + "".join(f".{k}={v}" for k, v in
                         sorted((overrides or {}).items()))
               + "".join(f".{k}" for k in sorted(kwargs)))
        cells.append((key, workload, clusters, predictor, steering,
                      overrides or {}, kwargs))

    turn = 0
    for clusters in (1, 2, 4, 8):
        for predictor in PREDICTORS:
            steering = "baseline" if predictor == "none" else "vpb"
            add(WORKLOADS[turn % len(WORKLOADS)], clusters, predictor,
                steering)
            turn += 1
    for clusters in (1, 2, 4):
        for steering in STEERINGS:
            add(WORKLOADS[turn % len(WORKLOADS)], clusters, "stride",
                steering)
            turn += 1
    add("gsmdec", 4, "stride", "vpb", {"comm_latency": 4})
    add("cjpeg", 2, "hybrid", "modified", {"comm_latency": 4})
    add("pgpenc", 4, "stride", "vpb", {"btb_entries": 256})
    add("mpeg2enc", 4, "stride", "vpb", {"free_copy_issue": True})
    add("epicdec", 4, "none", "baseline", {"comm_paths_per_cluster": 1})
    add("rawcaudio", 4, "stride", "vpb", {"extra_rename_cycles": 2})
    add("g721enc", 2, "stride", "baseline", {"vp_two_delta": False})
    add("cjpeg", 4, "stride", "vpb", fault_plan=FaultPlan(
        seed=7, value_rate=0.05, bus_delay_rate=0.05, bus_drop_rate=0.02,
        steer_rate=0.05))
    add("gsmdec", 1, "stride", "baseline",
        fault_plan=FaultPlan(seed=3, value_rate=0.1))
    add("g721enc", 4, "stride", "vpb", check=True)
    add("mesatexgen", 1, "context", "baseline", check=True)
    return cells


TRACED_CELLS = (
    ("rawcaudio", 1, "none", "baseline"),
    ("gsmdec", 1, "stride", "dependence-only"),
    ("cjpeg", 1, "stride", "static"),
    ("cjpeg", 4, "stride", "vpb"),
    ("mesatexgen", 4, "hybrid", "modified"),
)

#: Digests recorded before the cycle loop's host-speed rework.
RESULTS_DIGEST = ("de0431c4fe1627ca486cd8fe5f0a1f0a"
                  "e831e1f312b7cf4124bd88cf4868d43a")
EVENTS_DIGEST = ("d586bf1372d873e000a94c2604f1a92f"
                 "2a8114a9b5fd11a8830b26c58ac7b743")


def _config(workload, clusters, predictor, steering, overrides=None):
    overrides = dict(overrides or {})
    if steering == "static":
        overrides["static_assignment"] = profile_static_assignment(
            workload_trace(workload, LENGTH), clusters)
    return make_config(clusters, predictor=predictor, steering=steering,
                       **overrides)


def _sha256(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def results_digest() -> str:
    """sha256 over every grid cell's result dict and raw counters."""
    records = {}
    for key, workload, clusters, predictor, steering, overrides, kwargs \
            in _cells():
        config = _config(workload, clusters, predictor, steering, overrides)
        result = simulate(workload_trace(workload, LENGTH), config,
                          **kwargs)
        records[key] = {"result": result.to_dict(),
                        "stats": dataclasses.asdict(result.stats)}
    return _sha256(records)


def events_digest() -> str:
    """sha256 over the complete event streams of the traced cells."""
    streams = {}
    for workload, clusters, predictor, steering in TRACED_CELLS:
        sink = ListSink()
        simulate(workload_trace(workload, LENGTH),
                 _config(workload, clusters, predictor, steering),
                 tracer=EventTracer(sink))
        streams[f"{workload}.{clusters}cl.{predictor}.{steering}"] = \
            sink.events
    return _sha256(streams)


def test_grid_cells_cover_every_axis():
    cells = _cells()
    assert len({cell[0] for cell in cells}) == len(cells)
    assert {cell[2] for cell in cells} == {1, 2, 4, 8}
    assert {cell[3] for cell in cells} == set(PREDICTORS)
    assert {cell[4] for cell in cells} == set(STEERINGS)


def test_result_dicts_match_fingerprint():
    assert results_digest() == RESULTS_DIGEST


def test_event_streams_match_fingerprint():
    assert events_digest() == EVENTS_DIGEST


if __name__ == "__main__":
    print(f'RESULTS_DIGEST = "{results_digest()}"')
    print(f'EVENTS_DIGEST = "{events_digest()}"')
