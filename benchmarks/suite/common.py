"""Paths and start-up checks shared by the benchmark suite's scripts.

Every script measures the simulator sources of the checkout it lives
in (``<root>/src``), never an installed copy, and writes only under
``<root>/.benchsuite``.
"""

from __future__ import annotations

import json
import pathlib
import sys

SUITE_DIR = pathlib.Path(__file__).resolve().parent
ROOT = SUITE_DIR.parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".benchsuite"
SPEC_PATH = ROOT / "BENCHMARK.json"
REFERENCE_PATH = SUITE_DIR / "reference.json"
BASELINE_PATH = SUITE_DIR / "baseline.json"


def use_checkout_src() -> None:
    """Import ``repro`` from this checkout's ``src/`` or exit non-zero.

    The benchmark must fail, not fall back to another copy, when the
    sources it is meant to measure are absent.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no simulator sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro
    if SRC not in pathlib.Path(repro.__file__).resolve().parents:
        raise SystemExit(f"benchmark: imported repro from {repro.__file__}, "
                         f"not from {SRC}")


def load_json(path: pathlib.Path) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def write_json(path: pathlib.Path, data) -> None:
    """Write *data* as indented JSON, atomically."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")
    tmp.replace(path)
