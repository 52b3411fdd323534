"""The repository benchmark: three workloads, end to end and per layer.

    python benchmarks/suite/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace [0|1]] [--out PATH]

Each workload named in ``BENCHMARK.json`` (all of them by default) runs
in its own process (``worker.py``), so that set-up time and peak memory
are the workload's own.  Set-up is timed in five extra processes that
only set up, and their median is reported.  Untraced times are in
reference-host seconds (``hostspeed.py``).  The command
prints every metric with its unit, checks the simulator's outputs (see
``README.md``), writes one JSON result (``--out``, by default
``.benchsuite/result.json``) and prints one JSON summary as its last
line.  Untraced runs report the end-to-end metrics; ``--trace`` runs
the traced round and layer probe and reports the per-layer metrics.

It exits 0 when every check passed, 1 when one failed, and non-zero
without a summary when the simulator sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import signal
import statistics
import subprocess
import sys
import time

from common import (OUT_DIR, ROOT, SPEC_PATH, SUITE_DIR, load_json,
                    use_checkout_src, write_json)
from hostspeed import HostClock

#: Processes that only set up; ``setup_s`` is the median of their times.
SETUP_REPEATS = 5
#: A workload's processes must all end within this many seconds.
WORKLOAD_DEADLINE_S = 170


def run_worker(argv, deadline: float) -> dict:
    """Run ``worker.py`` with *argv*; returns its JSON result.

    The worker gets its own process group, so a timeout also stops any
    process it started.  ``REPRO_*`` variables are dropped: the
    benchmark fixes jobs, chunking and the result cache itself.
    """
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    proc = subprocess.Popen([sys.executable, str(SUITE_DIR / "worker.py"),
                             *argv], stdout=subprocess.PIPE, text=True,
                            env=env, cwd=ROOT, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0,
                                              deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit(f"benchmark: worker {argv} timed out")
    lines = out.strip().splitlines()
    if not lines:
        raise SystemExit(f"benchmark: worker {argv} exited "
                         f"{proc.returncode} without a result")
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    return result


def measure(name: str, args) -> dict:
    base = [name, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    deadline = time.monotonic() + WORKLOAD_DEADLINE_S
    if args.trace:
        return run_worker(base + ["--trace"], deadline)
    # Each set-up process is timed between two calibration bursts run
    # here, while nothing else runs, and scaled to reference-host speed.
    setup = []
    with HostClock() as clock:
        for _ in range(SETUP_REPEATS):
            with clock.unit() as unit:
                seconds = run_worker(base + ["--setup-only"],
                                     deadline)["setup_s"]
            setup.append(seconds * unit.factor)
    result = run_worker(base, deadline)
    if "setup_s" in result["metrics"]:
        result["extra"]["host_setup_s"] = result["metrics"]["setup_s"]
        result["metrics"]["setup_s"] = statistics.median(setup)
        result["extra"]["setup_s_samples"] = setup
    return result


def show(name: str, result: dict, units: dict) -> None:
    extra = result.get("extra", {})
    shape = ""
    if "rounds" in extra:
        shape = f", {extra['rounds']} round(s), {extra['cells']} cells"
    print(f"== {name} (seed {result['seed']}{shape})")
    for metric, value in sorted(result["metrics"].items()):
        print(f"  {metric:<36} {value:>14.6g} {units[metric]}")
    for name, value in extra.get("cell_s", {}).items():
        print(f"  {'cell_s_' + name:<36} {value:>14.6g} s (not bounded)")
    for metric, value in sorted(result.get("fidelity", {}).items()):
        print(f"  {metric:<36} {value:>14.6g} (deterministic)")
    verdict = "OK" if result["correct"] else "FAILED"
    print(f"  correctness: {verdict}; {result['attempted']} cells, "
          f"{result['failed']} failed")
    for problem in result.get("problems", []):
        print(f"    {problem}")
    if "sim_digest_status" in result:
        print(f"  sim_digest: {result['sim_digest_status']}")
        if result["sim_changed"]:
            print(f"    differing: {', '.join(result['sim_changed'])}")
    if "spans_path" in extra:
        print(f"  spans: {extra['spans_path']}")


def main(argv=None) -> int:
    use_checkout_src()
    spec = load_json(SPEC_PATH)
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names + ["all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0)
    parser.add_argument("--out", default=str(OUT_DIR / "result.json"))
    args = parser.parse_args(argv)
    if args.workload != "all":
        names = [args.workload]
    group = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in spec[group]}

    from repro.analysis.provenance import git_commit
    report = {"schema": "repro-bench-suite-v1", "seed": args.seed,
              "seconds": args.seconds, "trace": bool(args.trace),
              "commit": git_commit(ROOT), "nproc": os.cpu_count(),
              "python": platform.python_version(),
              "loadavg_1m": os.getloadavg()[0], "workloads": {}}
    for name in names:
        result = measure(name, args)
        result["seed"] = args.seed
        # BENCHMARK.json selects what is reported; the worker's other
        # values stay in the layer catalogue of the result file.
        measured = result["metrics"]
        if result["correct"] and set(units) - set(measured):
            raise SystemExit(f"benchmark: {name} did not report "
                             f"{sorted(set(units) - set(measured))}")
        result["metrics"] = {key: value for key, value in measured.items()
                             if key in units}
        unlisted = {key: value for key, value in measured.items()
                    if key not in units}
        if unlisted:
            result["extra"]["layer_catalogue"].update(unlisted)
        show(name, result, units)
        report["workloads"][name] = result
    write_json(pathlib.Path(args.out), report)

    results = list(report["workloads"].values())
    correct = all(r["correct"] and r["exit_code"] == 0 for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{name}/{metric}": value
                   for name, result in report["workloads"].items()
                   for metric, value in result["metrics"].items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {key: {"value": value,
                          "unit": units[key.rsplit("/", 1)[-1]]}
                    for key, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
