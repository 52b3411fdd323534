"""Compare benchmark results of a parent and a change, metric by metric.

    python benchmarks/suite/compare.py --parent A1.json A2.json ...
        --change B1.json B2.json ...

Each file is a result written by ``run.py --out``.  The i-th parent
file is paired with the i-th change file, so run the two sides
alternately, starting with the parent half the time.  For every
end-to-end metric of ``BENCHMARK.json`` and every workload, one row
gives each side's median and quartiles and one verdict:

``better``      at least 10 pairs, the change wins at least 9 in 10 of
                them (ties count for neither), and the medians differ
                by more than the parent's interquartile distance;
``worse``       the change's median is worse than the parent's by more
                than the metric's bound;
``unresolved``  neither, while the spread of either side (interquartile
                distance over median) is wider than the bound, unless
                every change run reads better than every parent run;
``same``        otherwise.

Runs of one workload at one seed must all have the same ``sim_digest``;
a difference is listed below the table.  The exit code is 1 when any
row is ``worse`` or ``unresolved`` or a digest differs.
"""

from __future__ import annotations

import argparse
import sys
from statistics import median
from typing import Dict, List, Sequence, Tuple

from common import SPEC_PATH, load_json
from stats import quartiles, relative_iqr

#: Pairs needed before a gain can be claimed, and the share it must win.
MIN_PAIRS = 10
WIN_SHARE = 0.9


def classify(parent: Sequence[float], change: Sequence[float],
             better: str, bound: float) -> str:
    """The verdict for one (metric, workload) row; see the module doc."""
    sign = 1.0 if better == "higher" else -1.0
    base = median(parent)
    gap = median(change) - base
    q1, _, q3 = quartiles(parent)
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and sign * gap > 0 and abs(gap) > q3 - q1):
        return "better"
    if -sign * gap / base > bound:
        return "worse"
    spread = max(relative_iqr(parent), relative_iqr(change))
    dominates = all(sign * (b - a) > 0 for a in parent for b in change)
    if spread > bound and not dominates:
        return "unresolved"
    return "same"


def collect(paths: Sequence[str]) -> Tuple[Dict[Tuple[str, str],
                                                 List[float]],
                                           Dict[Tuple[str, int], set]]:
    """Metric values per (metric, workload), in file order, and the
    sim digests seen per (workload, seed)."""
    values: Dict[Tuple[str, str], List[float]] = {}
    digests: Dict[Tuple[str, int], set] = {}
    for path in paths:
        report = load_json(path)
        for workload, result in report["workloads"].items():
            for metric, value in result["metrics"].items():
                values.setdefault((metric, workload), []).append(value)
            if "sim_digest" in result:
                digests.setdefault((workload, report["seed"]), set()).add(
                    result["sim_digest"])
    return values, digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = load_json(SPEC_PATH)
    parent, parent_digests = collect(args.parent)
    change, change_digests = collect(args.change)

    def cell(q) -> str:
        return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"

    print(f"{'metric':<14} {'workload':<16} {'parent median [q1, q3]':>36} "
          f"{'change median [q1, q3]':>36} {'delta':>8}  verdict")
    failing = 0
    for metric in spec["end_to_end"]:
        for workload in [w["name"] for w in spec["workloads"]]:
            key = (metric["name"], workload)
            if key not in parent or key not in change:
                continue
            a, b = parent[key], change[key]
            verdict = classify(a, b, metric["better"], metric["bound"])
            failing += verdict in ("worse", "unresolved")
            qa, qb = quartiles(a), quartiles(b)
            print(f"{metric['name']:<14} {workload:<16} {cell(qa):>36} "
                  f"{cell(qb):>36} {(qb[1] - qa[1]) / qa[1]:>+8.2%}  "
                  f"{verdict}")
    for key in sorted(set(parent_digests) & set(change_digests)):
        if len(parent_digests[key] | change_digests[key]) > 1:
            failing += 1
            print(f"sim_digest differs: {key[0]} at seed {key[1]}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
