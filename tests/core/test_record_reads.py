"""The simulated path reads no static fact through a trace record.

``DynInst`` keeps only what varies per execution; its ``pc``, ``op``,
opcode flags and the rest are properties over its static
``Instruction``, kept for the golden model, the profilers and the
tests.  Fetch, decode, dispatch, uop construction, the tracer hooks and
``run()`` read the instruction itself, once per instruction.  With
every property made to raise, each kind of run must still complete.
"""

from __future__ import annotations

import pytest

from repro.analysis.sampling import SamplingConfig
from repro.core import make_config, simulate
from repro.isa.instruction import DynInst
from repro.obs import EventTracer, ListSink
from repro.workloads import build_workload

from ..isa.test_instruction import STATIC_VIEWS


def _refuse(name):
    def read(dyn):
        raise AssertionError(f"DynInst.{name} read on the simulated path")
    return property(read)


@pytest.fixture
def property_free(monkeypatch):
    """Make every ``DynInst`` property raise."""
    assert {name for name, value in vars(DynInst).items()
            if isinstance(value, property)} == set(STATIC_VIEWS)
    for name in STATIC_VIEWS:
        monkeypatch.setattr(DynInst, name, _refuse(name))


@pytest.mark.parametrize("n_clusters, predictor, steering, extra", [
    (1, "none", "baseline", {}),
    (4, "stride", "vpb", {"btb_entries": 2048}),
], ids=["1cl_none", "4cl_vpb_btb"])
def test_detailed_cells(property_free, n_clusters, predictor, steering,
                        extra):
    result = simulate(build_workload("cjpeg"),
                      make_config(n_clusters, predictor=predictor,
                                  steering=steering, **extra),
                      max_instructions=2_000)
    assert result.stats.committed_insts == 2_000


@pytest.mark.parametrize("n_clusters", [1, 4])
def test_traced_cell(property_free, n_clusters):
    sink = ListSink()
    result = simulate(build_workload("gsmdec"),
                      make_config(n_clusters, predictor="stride",
                                  steering="vpb"),
                      max_instructions=2_000, tracer=EventTracer(sink))
    assert result.stats.committed_insts == 2_000
    assert sink.events


def test_sampled_run(property_free):
    result = simulate(build_workload("gsmdec"),
                      make_config(2, predictor="stride", steering="vpb"),
                      max_instructions=20_000, workload_name="gsmdec",
                      sampling=SamplingConfig(interval=1200, warmup=200,
                                              samples=2))
    assert len(result.windows) == 2 and result.ff_insts > 0
