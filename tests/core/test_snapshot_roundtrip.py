"""Property-based snapshot round-trips: ``save -> restore -> resume``
must be bit-identical to never having snapshotted.

The property is checked across the machine axes that actually change
what a snapshot must capture — cluster count (interconnect + register
bank shape), value predictor (table state), steering scheme (steerer
history) — and across random cut points, because the bug class these
tests hunt is state that exists only mid-flight (ROB entries, issued
but uncommitted ops, in-transit bus messages) being dropped or doubled
on restore.
"""

import dataclasses
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (make_config, read_snapshot_meta, restore_executor,
                        restore_processor, save_executor, save_processor,
                        simulate)
from repro.core.processor import Processor
from repro.core.snapshot import SNAPSHOT_SCHEMA, SNAPSHOT_VERSION, SnapshotError
from repro.isa.executor import FunctionalExecutor
from repro.workloads import build_workload, workload_trace

WORKLOAD = "cjpeg"
TOTAL = 4_000

configs = st.sampled_from([
    make_config(1, predictor="none", steering="baseline"),
    make_config(2, predictor="stride", steering="vpb"),
    make_config(2, predictor="context", steering="dependence-only"),
    make_config(4, predictor="hybrid", steering="modified"),
    make_config(4, predictor="perfect", steering="balance-only"),
    make_config(2, predictor="stride", steering="round-robin"),
])


def _uninterrupted(config):
    executor = FunctionalExecutor(build_workload(WORKLOAD), TOTAL)
    return simulate(executor.run(), config, max_instructions=TOTAL)


def _resumed(config, cut, tmp):
    executor = FunctionalExecutor(build_workload(WORKLOAD), TOTAL)
    processor = Processor(config, executor.run())
    processor.trace_executor = executor
    processor.run_until(max_insts=cut)
    path = str(tmp / "machine.snap")
    save_processor(path, processor)
    restored, _ = restore_processor(path)
    restored.run_until(max_insts=TOTAL)
    return restored.finalize()


@settings(max_examples=8, deadline=None)
@given(config=configs, cut=st.integers(min_value=100, max_value=TOTAL - 100))
def test_machine_roundtrip_is_bit_identical(config, cut, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("snap")
    baseline = _uninterrupted(config)
    resumed = _resumed(config, cut, tmp)
    assert dataclasses.asdict(resumed.stats) == \
        dataclasses.asdict(baseline.stats)


@settings(max_examples=6, deadline=None)
@given(cut=st.integers(min_value=500, max_value=TOTAL - 500),
       seed=st.integers(min_value=0, max_value=3))
def test_executor_roundtrip_preserves_architectural_state(
        cut, seed, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("snap")
    straight = FunctionalExecutor(build_workload(WORKLOAD, seed=seed), TOTAL)
    straight.skip(TOTAL)

    executor = FunctionalExecutor(build_workload(WORKLOAD, seed=seed), TOTAL)
    executor.skip(cut)
    path = str(tmp / "executor.ckpt")
    save_executor(path, executor)
    resumed = restore_executor(path)
    assert resumed.seq == cut
    resumed.skip(TOTAL - cut)

    assert resumed.seq == straight.seq
    assert resumed.pc == straight.pc
    assert resumed.int_regs == straight.int_regs
    assert resumed.fp_regs == straight.fp_regs


def test_trace_list_snapshot_needs_trace_back(tmp_path):
    config = make_config(2, predictor="stride", steering="vpb")
    trace = workload_trace(WORKLOAD, TOTAL)
    baseline = simulate(list(trace), config, max_instructions=TOTAL)

    processor = Processor(config, iter(list(trace)))
    processor.run_until(max_insts=1_500)
    path = str(tmp_path / "tracelist.snap")
    save_processor(path, processor)

    with pytest.raises(SnapshotError):
        restore_processor(path)

    restored, executor = restore_processor(path, trace=list(trace))
    assert executor is None
    restored.run_until(max_insts=TOTAL)
    resumed = restored.finalize()
    assert resumed.stats.cycles == baseline.stats.cycles
    assert resumed.stats.ipc == baseline.stats.ipc


def test_meta_header_records_position_and_schema(tmp_path):
    config = make_config(2, predictor="stride", steering="vpb")
    executor = FunctionalExecutor(build_workload(WORKLOAD), TOTAL)
    processor = Processor(config, executor.run())
    processor.trace_executor = executor
    processor.run_until(max_insts=1_000)
    path = str(tmp_path / "machine.snap")
    save_processor(path, processor, extra={"workload": WORKLOAD})

    meta = read_snapshot_meta(path)
    assert meta.schema == SNAPSHOT_SCHEMA
    assert meta.version == SNAPSHOT_VERSION
    assert meta.kind == "machine"
    assert meta.committed_insts == processor.stats.committed_insts
    assert meta.cycle == processor.cycle
    assert meta.extra["workload"] == WORKLOAD


def test_incompatible_version_is_refused(tmp_path):
    executor = FunctionalExecutor(build_workload(WORKLOAD), 2_000)
    executor.skip(1_000)
    path = tmp_path / "executor.ckpt"
    save_executor(str(path), executor)

    raw = path.read_bytes()
    header, rest = raw.split(b"\n", 1)
    current = b'"version":%d' % SNAPSHOT_VERSION
    # An older format (what earlier code wrote) and a future one.
    for other in (SNAPSHOT_VERSION - 1, 99):
        bad = header.replace(current, b'"version":%d' % other)
        assert bad != header
        (tmp_path / "bad.ckpt").write_bytes(bad + b"\n" + rest)

        with pytest.raises(SnapshotError):
            read_snapshot_meta(str(tmp_path / "bad.ckpt"))
        with pytest.raises(SnapshotError):
            restore_executor(str(tmp_path / "bad.ckpt"))


def test_corrupt_payload_is_detected(tmp_path):
    executor = FunctionalExecutor(build_workload(WORKLOAD), 2_000)
    executor.skip(1_000)
    path = tmp_path / "executor.ckpt"
    save_executor(str(path), executor)

    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF
    (tmp_path / "corrupt.ckpt").write_bytes(bytes(raw))

    with pytest.raises(SnapshotError):
        restore_executor(str(tmp_path / "corrupt.ckpt"))


def test_cut_while_decode_stalls_on_a_predicted_head(tmp_path):
    """The fetch-buffer head was predicted but not dispatched; resuming
    must reuse its predictions, not train the predictor a second time.
    The full result dict is compared: a second training would move the
    value-predictor counters without moving ``SimStats``."""
    from repro.isa.registers import ZERO_REG
    config = make_config(1, predictor="stride")
    baseline = _uninterrupted(config)

    executor = FunctionalExecutor(build_workload(WORKLOAD), TOTAL)
    processor = Processor(config, executor.run())
    processor.trace_executor = executor
    processor.run_until(max_insts=1_000)
    buffer = processor.fetch._buffer
    while not (buffer and buffer[0].predictions is not None
               and any(s != ZERO_REG and not fp for s, fp
                       in zip(buffer[0].dyn.srcs, buffer[0].dyn.srcs_fp))):
        processor.run_until(max_cycles=processor.cycle + 1)
    path = str(tmp_path / "stalled.snap")
    save_processor(path, processor)
    restored, _ = restore_processor(path)
    assert restored.fetch._buffer[0].predictions == buffer[0].predictions
    restored.run_until(max_insts=TOTAL)
    assert restored.finalize().to_dict() == baseline.to_dict()
