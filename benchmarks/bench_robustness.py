"""Robustness benchmark — the fault-injection campaign.

The campaign (docs/ROBUSTNESS.md) must show 100% detection of injected
value corruptions and full recovery across N seeds x fault kinds, with
its report saved to ``results/robustness_campaign.txt``.  (The
headline's stability across trace-window sizes is the ``robustness``
entry of ``bench_figures.py``.)
"""

from repro.validation import format_campaign, run_fault_campaign


def test_fault_campaign(benchmark, save_report):
    result = benchmark.pedantic(
        run_fault_campaign,
        kwargs={"seeds": (0, 1, 2), "length": 4_000},
        rounds=1, iterations=1)
    save_report("robustness_campaign", format_campaign(result))
    # The paper's safety property, demonstrated at campaign scale.
    assert result.detection_rate == 1.0
    assert result.all_recovered
    assert not result.failures
    assert all(cell.injected > 0 for cell in result.value_cells())

