"""Decode builds an operand object only for a speculative source.

Every other source reads one of the processor's shared, read-only
operands (one local read per physical register index, plus the zero
operand), and steering reads plain tuples.  These tests pin both: what
a run constructs once the processor exists, and that no write in
dispatch, writeback, verification or recovery ever lands on a shared
operand.
"""

import sys
from collections import Counter

import pytest

from repro.core import make_config
from repro.core.processor import Processor
from repro.core.uop import MODE_LOCAL, MODE_PRED, MODE_ZERO, Operand
from repro.steering import SourceView
from repro.validation.faults import FaultInjector, FaultPlan
from repro.workloads import workload_trace

LENGTH = 3_000


def _constructor_codes(cls):
    """Code objects of the Python-level constructors *cls* defines."""
    codes = set()
    for name in ("__init__", "__new__"):
        member = cls.__dict__.get(name)
        function = getattr(member, "__func__", member)  # staticmethod
        code = getattr(function, "__code__", None)
        if code is not None:
            codes.add(code)
    return codes


def _processor(workload, clusters, predictor, steering, plan=None,
               **overrides):
    config = make_config(clusters, predictor=predictor, steering=steering,
                         **overrides)
    injector = FaultInjector(plan) if plan is not None else None
    return Processor(config, workload_trace(workload, LENGTH),
                     injector=injector)


def _run_counting(processor):
    """Run *processor*; the result, the modes of the operands it
    constructed, and how many steering views it constructed."""
    operand_codes = _constructor_codes(Operand)
    view_codes = _constructor_codes(SourceView)
    modes = Counter()
    views = 0

    def profile(frame, event, arg):
        nonlocal views
        if event == "call":
            if frame.f_code in operand_codes:
                modes[frame.f_locals["mode"]] += 1
            elif frame.f_code in view_codes:
                views += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = processor.run()
    finally:
        sys.setprofile(previous)
    return result, modes, views


class TestOnlySpeculativeOperandsAreBuilt:
    def test_one_cluster_without_prediction_builds_none(self):
        result, modes, views = _run_counting(
            _processor("gsmdec", 1, "none", "baseline"))
        assert result.stats.committed_insts == LENGTH
        assert modes == Counter()
        assert views == 0

    def test_four_clusters_build_only_predicted_operands(self):
        result, modes, views = _run_counting(
            _processor("gsmdec", 4, "stride", "vpb"))
        assert result.stats.committed_insts == LENGTH
        assert set(modes) == {MODE_PRED}
        # A decode retry after a stall plans the instruction again.
        assert modes[MODE_PRED] >= result.stats.speculative_operands > 0
        assert result.stats.dispatched_copies > 0
        assert views == 0


#: Cells that reach every site writing an operand after decode, with
#: the statistics that prove each got there.
READ_ONLY_CELLS = {
    "local-mispredictions": (
        ("cjpeg", 1, "stride", "baseline"),
        {}, ("mispredicted_operands", "invalidations")),
    "remote-mismatch-forwards": (
        ("g721enc", 4, "stride", "vpb"),
        {}, ("mispredicted_operands", "mismatch_forwards", "invalidations",
             "dispatched_vcopies", "dispatched_copies")),
    "oracle": (
        ("mesatexgen", 4, "perfect", "vpb"),
        {}, ("speculative_operands", "dispatched_copies")),
    "faults-1cl": (
        ("gsmdec", 1, "stride", "baseline",
         FaultPlan(seed=3, value_rate=0.1)),
        {}, ("detected_faults",)),
    "faults-4cl": (
        ("cjpeg", 4, "stride", "vpb",
         FaultPlan(seed=7, value_rate=0.05, bus_delay_rate=0.05,
                   bus_drop_rate=0.02, steer_rate=0.05)),
        {}, ("detected_faults", "mismatch_forwards")),
    "comm-latency-4": (
        ("rawcaudio", 4, "stride", "vpb"),
        {"comm_latency": 4}, ("mismatch_forwards", "invalidations")),
    "free-copy-issue": (
        ("mpeg2enc", 4, "stride", "vpb"),
        {"free_copy_issue": True},
        ("mispredicted_operands", "dispatched_copies")),
}


@pytest.mark.parametrize("name", sorted(READ_ONLY_CELLS))
def test_shared_operands_stay_read_only(name):
    args, overrides, reached = READ_ONLY_CELLS[name]
    processor = _processor(*args, **overrides)
    stats = processor.run().stats
    assert stats.committed_insts == LENGTH
    for field in reached:
        assert getattr(stats, field) > 0, field
    for preg, operand in enumerate(processor._local_operands):
        assert (operand.mode, operand.preg, operand.verified,
                operand.correct, operand.ready_override) == \
            (MODE_LOCAL, preg, False, True, 0)
    zero = processor._zero_operand
    assert (zero.mode, zero.preg, zero.verified, zero.correct,
            zero.ready_override) == (MODE_ZERO, None, False, True, 0)
