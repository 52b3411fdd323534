"""Run the ``make sample-check`` gate from the tier-1 suite.

A regression in checkpoint round-trip identity, the sampled receipt
schema, or the sampling estimator fails this test as well as the
standalone target.
"""

import pathlib
import sys

BENCH = pathlib.Path(__file__).resolve().parent.parent.parent \
    / "benchmarks"
sys.path.insert(0, str(BENCH))

from sample_check import run_checks  # noqa: E402

from repro.analysis.sampling import SamplingConfig


def test_sampling_gate_passes():
    # The identity and schema checks run at full strength; the
    # throughput/accuracy bars are relaxed because the suite shares
    # the host with other tests and this runs a tenth of the gate's
    # instruction count (fewer, noisier windows) — `make sample-check`
    # enforces the strict 20x / 2% contract at a million instructions.
    checks = run_checks(
        length=100_000,
        sampling=SamplingConfig(interval=1200, warmup=200, samples=16),
        min_speedup=3.0, max_error=0.10, repeats=1)
    failures = [(name, detail) for name, ok, detail in checks if not ok]
    assert not failures, failures
    assert len(checks) == 6
