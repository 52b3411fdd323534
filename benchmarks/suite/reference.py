"""Record the benchmark's reference values in ``reference.json``.

    python benchmarks/suite/reference.py

Two kinds of value, at workload seeds 0 and 1 (seed 1 is held out):

* the detailed model's IPC over the full million instructions of each
  ``sampled-1m`` program, which ``sampled_ipc_err`` compares the
  sampled estimate with (about 50 s per program; the runs fan out to
  one process per core);
* each workload's ``sim_digest``, a sha256 over one round's result
  dicts, and its ``sim.*`` values, which the correctness gate compares
  with so that a changed simulated result is named.

Rerun it, and commit the file, when a change to the timing model moves
simulated results on purpose.  Seed 0's IPCs must match the detailed
values recorded in BENCH_sweep.json at commit 5c08a87; the script
exits 1 if they do not.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from common import REFERENCE_PATH, use_checkout_src, write_json

SEEDS = (0, 1)

#: Detailed 1M-instruction IPCs (2 clusters, stride/vpb, seed 0) from
#: the sampled-sweep entry of BENCH_sweep.json, commit 5c08a87.
RECORDED_SEED0_IPC = {"gsmdec": 3.7564, "cjpeg": 5.1823,
                      "mesatexgen": 3.8494, "pgpdec": 2.2756}


def detailed_ipc(item) -> float:
    """Detailed IPC of one (program, seed, length, config) run."""
    use_checkout_src()
    from cases import config_for
    from repro.core import simulate
    from repro.isa.executor import FunctionalExecutor
    from repro.workloads import build_workload
    name, seed, length, label = item
    # A streamed trace keeps memory bounded at a million instructions.
    trace = FunctionalExecutor(build_workload(name, seed=seed), length).run()
    result = simulate(trace, config_for(label), max_instructions=length)
    return result.stats.committed_insts / result.stats.cycles


def main() -> int:
    use_checkout_src()
    from cases import WORKLOADS, Sampled1M, digest
    from hostspeed import HostClock
    from repro.analysis.parallel import resolve_jobs
    from spans import NullRecorder

    sampled = Sampled1M()
    items = [(name, seed, sampled.length, sampled.config)
             for seed in SEEDS for name in sampled.programs]
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=min(resolve_jobs(0), len(items)),
                             mp_context=context) as pool:
        ipcs = list(pool.map(detailed_ipc, items))
    reference_ipc = {str(seed): {} for seed in SEEDS}
    for (name, seed, _, _), ipc in zip(items, ipcs):
        reference_ipc[str(seed)][name] = ipc
        print(f"detailed IPC {name} seed {seed}: {ipc:.4f}")

    sim_digest = {str(seed): {} for seed in SEEDS}
    for seed in SEEDS:
        for name, cls in WORKLOADS.items():
            workload = cls()
            workload.setup(seed, NullRecorder())
            rnd = workload.run_round(NullRecorder(),
                                     HostClock(calibrated=False))
            problems = workload.check(rnd)
            if problems:
                print(f"{name} seed {seed}: {problems}", file=sys.stderr)
                return 1
            sim_digest[str(seed)][name] = {
                "digest": digest(rnd.results),
                "sim": workload.sim_metrics(rnd.results)}
            print(f"sim_digest {name} seed {seed}: "
                  f"{sim_digest[str(seed)][name]['digest'][:16]}")

    mismatched = {name: (round(reference_ipc["0"][name], 4), recorded)
                  for name, recorded in RECORDED_SEED0_IPC.items()
                  if round(reference_ipc["0"][name], 4) != recorded}
    if mismatched:
        print(f"seed-0 IPCs differ from BENCH_sweep.json: {mismatched}",
              file=sys.stderr)
        return 1
    write_json(REFERENCE_PATH, {
        "sampled_length": sampled.length,
        "sampled_config": sampled.config,
        "sampled_reference_ipc": reference_ipc,
        "sim_digest": sim_digest,
    })
    print(f"wrote {os.path.relpath(REFERENCE_PATH)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
