"""Record the benchmark baseline in ``baseline.json``.

    python benchmarks/suite/baseline.py

Runs ``run.py`` over every workload three times, untraced: twice at
seed 0 and once at the held-out seed 1.  Each entry records the
commit, core count, Python version and 1-minute load average with the
end-to-end metrics.  It refuses to record when the simulator sources
(``src/``) differ from the commit, since the numbers would then belong
to no commit, and when the 1-minute load average is above
:data:`MAX_LOADAVG`, since other processes would then slow the runs.
"""

from __future__ import annotations

import os
import subprocess
import sys

from common import BASELINE_PATH, OUT_DIR, ROOT, SUITE_DIR, load_json, \
    write_json

SEEDS = (0, 0, 1)
#: Highest 1-minute load average at which a baseline is recorded.
MAX_LOADAVG = 0.5


def git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)


def main() -> int:
    try:
        head = git("rev-parse", "--short", "HEAD")
        status = git("status", "--porcelain", "--", "src")
    except (OSError, subprocess.SubprocessError):
        head = status = None
    if (head is None or head.returncode or status.returncode
            or status.stdout.strip()):
        print("baseline: src/ differs from the commit (or git is "
              "unavailable); commit first", file=sys.stderr)
        return 1
    loadavg = os.getloadavg()[0]
    if loadavg > MAX_LOADAVG:
        print(f"baseline: load average {loadavg:.2f} is above "
              f"{MAX_LOADAVG}; stop other work first", file=sys.stderr)
        return 1
    runs = []
    for index, seed in enumerate(SEEDS):
        out = OUT_DIR / f"baseline-{index}.json"
        subprocess.run([sys.executable, str(SUITE_DIR / "run.py"),
                        "--seed", str(seed), "--out", str(out)],
                       cwd=ROOT, check=True)
        report = load_json(out)
        runs.append({
            "commit": head.stdout.strip(), "seed": seed,
            "nproc": report["nproc"], "python": report["python"],
            "loadavg_1m": report["loadavg_1m"],
            "metrics": {name: result["metrics"] for name, result
                        in report["workloads"].items()},
        })
    write_json(BASELINE_PATH, {"runs": runs})
    print(f"wrote {BASELINE_PATH.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
