"""Sweep-telemetry health gate: ``make telemetry-check``.

Runs a 30-cell sweep (every suite workload x two configurations) under
a :class:`~repro.obs.telemetry.SweepMonitor` and asserts the contract
documented in docs/OBSERVABILITY.md:

1. **Overhead** — monitoring a sweep costs < 2% wall-clock over the
   unmonitored run (interleaved min-of-N timing to filter host noise).
2. **Non-invasiveness** — every ``SimStats`` field of the monitored
   sweep is bit-identical to the unmonitored run's.
3. **Schema validity** — the telemetry JSONL event log passes
   :func:`repro.obs.schema.validate_telemetry_jsonl` and the run
   receipt passes :func:`repro.obs.schema.validate_receipt`.
4. **Honest accounting** — the receipt's cache counters match the
   simulate calls that actually happened: a cold cached sweep reports
   ``simulated == stores == cells`` with zero hits, and the warm rerun
   reports ``hits == cells`` with zero simulations.

Exit code 0 when every check passes, 1 otherwise (2 on bad input).
The tier-1 test suite runs :func:`run_checks` directly, so a regression
in any of these fails ``make test`` as well as ``make telemetry-check``.
"""

from __future__ import annotations

import os
import sys
import tempfile

from harness import (Check, cli_errors, overhead_check, report,
                     same_results, schema_check, sweep_cells)
from repro.analysis import ResultCache, RunReceipt, run_cells, use_cache
from repro.obs.schema import validate_receipt, validate_telemetry_jsonl
from repro.obs.telemetry import SweepMonitor, use_monitor

#: Wall-clock overhead budget for sweep monitoring.
OVERHEAD_BUDGET = 0.02

#: Two machine configurations; crossed with the 15-workload suite they
#: give the acceptance sweep's 30 cells.
CONFIGS = ((4, "stride", "vpb"), (4, "none", "baseline"))


def run_checks(length: int = 800, repeats: int = 3,
               overhead_budget: float = OVERHEAD_BUDGET) -> list:
    """Run every check; returns a list of :class:`harness.Check`."""
    cells = sweep_cells(CONFIGS, length)

    def monitored():
        with use_monitor(SweepMonitor()):
            return run_cells(cells, jobs=1)

    # use_cache(None) shadows any ambient REPRO_CACHE: the gate must
    # time and count real simulations, not a developer's warm cache.
    with use_cache(None):
        # Timed first, on a clean heap.
        checks = [overhead_check(
            f"monitor overhead < {overhead_budget:.0%}",
            {"unmonitored": lambda: run_cells(cells, jobs=1),
             "monitored": monitored}, repeats, overhead_budget)]

        same = same_results(run_cells(cells, jobs=1), monitored())
        checks.append(Check("non-invasive (stats bit-identical)", same,
                            "" if same else "monitored stats diverge"))

        with tempfile.TemporaryDirectory() as tmp:
            jsonl_path = os.path.join(tmp, "telemetry.jsonl")
            cold_receipt = os.path.join(tmp, "receipt_cold.json")
            warm_receipt = os.path.join(tmp, "receipt_warm.json")
            cache = ResultCache(os.path.join(tmp, "cache"))
            with use_monitor(SweepMonitor(jsonl_path=jsonl_path)) \
                    as monitor:
                run_cells(cells, jobs=1, cache=cache,
                          receipt_path=cold_receipt)
                monitor.close()
            run_cells(cells, jobs=1, cache=cache,
                      receipt_path=warm_receipt)

            checks += [
                schema_check("telemetry jsonl schema",
                             validate_telemetry_jsonl, jsonl_path,
                             "event(s)"),
                schema_check("cold receipt schema", validate_receipt,
                             cold_receipt, "cell(s)"),
                schema_check("warm receipt schema", validate_receipt,
                             warm_receipt, "cell(s)")]
            cold = RunReceipt.read(cold_receipt)
            warm = RunReceipt.read(warm_receipt)
            n = len(cells)
            cold_ok = (cold["cache"]["misses"], cold["cache"]["stores"],
                       cold["cache"]["hits"],
                       cold["counts"]["simulated"]) == (n, n, 0, n)
            checks.append(Check(
                "cold receipt counts every simulate call", cold_ok,
                f"{cold['counts']['simulated']} simulated, "
                f"{cold['cache']['stores']} stored (expected {n} each)"))
            warm_ok = (warm["cache"]["hits"], warm["cache"]["misses"],
                       warm["counts"]["simulated"]) == (n, 0, 0)
            checks.append(Check(
                "warm receipt reports zero simulations", warm_ok,
                f"{warm['cache']['hits']} hit(s), "
                f"{warm['counts']['simulated']} simulated "
                f"(expected {n} / 0)"))

    return checks


@cli_errors
def main() -> int:
    return report("telemetry-check", run_checks())


if __name__ == "__main__":
    sys.exit(main())
