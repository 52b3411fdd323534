"""Tier-1 gate for sampled simulation and snapshots (``make
sample-check``).

Four guarantees, each fatal when violated:

1. **Throughput** — a million-instruction sampled run must deliver
   >= ``MIN_SPEEDUP``x the detailed model's effective
   instructions-per-second on the same workload/configuration/host.
2. **Accuracy** — its IPC estimate must land within ``MAX_IPC_ERROR``
   of the uninterrupted detailed run's IPC.
3. **Checkpoint identity** — ``save -> restore -> resume`` must be
   bit-identical to never having snapshotted, for both snapshot kinds
   (a mid-run machine snapshot and a fast-forward executor
   checkpoint).
4. **Receipt schema** — a sampled sweep cell's run receipt must carry
   the sampling block and validate against the receipt schema.

The detailed reference run doubles as the throughput baseline: both
sides are measured in-process on the same host by
``harness.detailed_vs_sampled``, three rounds each, alternating which
side runs first, and the speedup compares their medians; that is what
makes the ratio honest and lets it see a change of a few percent.  The
gate is three detailed runs plus change (~100 s on a 2-core VM).  The
multi-workload version of the same measurement (with provenance,
appended to ``BENCH_sweep.json``) lives in
``benchmarks/bench_wallclock.py --sampled``.  Exit code 0 when every
check passes, 1 otherwise (2 on bad input).
"""

from __future__ import annotations

import pathlib
import sys
import tempfile

from harness import (Check, cli_errors, detailed_vs_sampled, report,
                     same_results)
from repro.analysis.parallel import SweepCell, run_cells
from repro.analysis.provenance import RunReceipt
from repro.analysis.sampling import SamplingConfig
from repro.core import (make_config, restore_executor, restore_processor,
                        save_executor, save_processor, simulate)
from repro.core.processor import Processor
from repro.isa.executor import FunctionalExecutor
from repro.obs import SweepMonitor, use_monitor
from repro.obs.schema import validate_receipt
from repro.workloads import build_workload

WORKLOAD = "mesatexgen"
LENGTH = 1_000_000
SAMPLING = SamplingConfig(interval=1200, warmup=200, samples=16)
CONFIG_KW = dict(predictor="stride", steering="vpb")
CLUSTERS = 2

MIN_SPEEDUP = 20.0
MAX_IPC_ERROR = 0.02
#: Timed rounds per side of the throughput check.
REPEATS = 3


def machine_roundtrip(tmp: str) -> Check:
    """Guarantee 3a: mid-run machine snapshot resume == uninterrupted."""
    config = make_config(CLUSTERS, **CONFIG_KW)
    total, cut = 20_000, 8_000

    baseline = simulate(
        FunctionalExecutor(build_workload(WORKLOAD), total).run(),
        config, max_instructions=total)

    executor = FunctionalExecutor(build_workload(WORKLOAD), total)
    processor = Processor(config, executor.run())
    processor.trace_executor = executor
    processor.run_until(max_insts=cut)
    path = str(pathlib.Path(tmp) / "machine.snap")
    save_processor(path, processor)
    restored, _ = restore_processor(path)
    restored.run_until(max_insts=total)
    resumed = restored.finalize()

    same = same_results({WORKLOAD: resumed}, {WORKLOAD: baseline})
    return Check(
        "machine snapshot roundtrip", same,
        f"resume @{cut}: {resumed.stats.committed_insts} insts / "
        f"{resumed.stats.cycles} cycles vs uninterrupted "
        f"{baseline.stats.committed_insts} / {baseline.stats.cycles}")


def executor_roundtrip(tmp: str) -> Check:
    """Guarantee 3b: executor checkpoint resume == uninterrupted."""
    total, cut = 120_000, 50_000
    straight = FunctionalExecutor(build_workload(WORKLOAD), total)
    straight.skip(total)

    executor = FunctionalExecutor(build_workload(WORKLOAD), total)
    executor.skip(cut)
    path = str(pathlib.Path(tmp) / "executor.ckpt")
    save_executor(path, executor)
    resumed = restore_executor(path)
    resumed.skip(total - cut)

    same = (resumed.seq == straight.seq
            and resumed.pc == straight.pc
            and resumed.int_regs == straight.int_regs
            and resumed.fp_regs == straight.fp_regs)
    return Check(
        "executor checkpoint roundtrip", same,
        f"resume @{cut}: seq {resumed.seq}, architectural state "
        f"{'identical' if same else 'DIVERGED'}")


def receipt_schema() -> list:
    """Guarantee 4: a sampled cell's receipt validates."""
    cell = SweepCell(key=(WORKLOAD, "sampled"), workload=WORKLOAD,
                     n_clusters=CLUSTERS, length=60_000,
                     sampling=SamplingConfig(interval=1200, warmup=200,
                                             samples=4),
                     **CONFIG_KW)
    monitor = SweepMonitor()
    with use_monitor(monitor):
        results = run_cells([cell], jobs=1)
    monitor.close()
    receipt = RunReceipt.from_monitor(monitor, label="sample-check")
    cells = validate_receipt(receipt.to_dict())
    block = receipt.to_dict()["cells"][0]["sampling"]
    return [Check(
        "receipt schema", cells == 1 and block is not None
        and block["interval"] == 1200,
        f"{cells} cell(s), sampling block {block}"), Check(
        "sampled cell result", results[(WORKLOAD, "sampled")].ipc > 0,
        f"cell IPC {results[(WORKLOAD, 'sampled')].ipc:.4f}")]


def run_checks(length: int = LENGTH,
               sampling: SamplingConfig = SAMPLING,
               min_speedup: float = MIN_SPEEDUP,
               max_error: float = MAX_IPC_ERROR,
               repeats: int = REPEATS) -> list:
    """All four guarantees as :class:`harness.Check` records.

    The tier-1 wrapper (``tests/analysis/test_sample_check.py``) runs
    this at reduced length and one round per side with relaxed
    throughput/accuracy bars — the suite shares the host with other
    tests and a shorter run has fewer windows — while ``make
    sample-check`` enforces the full-strength 20x / 2% contract.
    """
    with tempfile.TemporaryDirectory() as tmp:
        checks = [machine_roundtrip(tmp), executor_roundtrip(tmp),
                  *receipt_schema()]
    # Guarantees 1 + 2: both sides timed alternately, *repeats* rounds
    # each, the speedup taken from their medians, so host drift hits
    # both alike.
    row, readings = detailed_vs_sampled(
        WORKLOAD, make_config(CLUSTERS, **CONFIG_KW), length, sampling,
        repeats)
    return checks + [Check(
        "throughput", row["speedup"] >= min_speedup,
        f"{row['effective_insts_per_second']:,.0f} effective insts/s vs "
        f"{row['detailed_insts_per_second']:,.0f} detailed = "
        f"{row['speedup']:.1f}x (need >= {min_speedup:.0f}x); "
        f"{readings}"), Check(
        "accuracy", abs(row["ipc_error"]) <= max_error,
        f"sampled IPC {row['sampled_ipc']:.4f} vs detailed "
        f"{row['detailed_ipc']:.4f} = {row['ipc_error']:+.2%} "
        f"(need within {max_error:.0%})")]


@cli_errors
def main() -> int:
    print(f"sample-check: {WORKLOAD} x {LENGTH} insts, "
          f"{SAMPLING.samples} windows of "
          f"{SAMPLING.warmup}+{SAMPLING.interval}")
    return report("sample-check", run_checks())


if __name__ == "__main__":
    sys.exit(main())
