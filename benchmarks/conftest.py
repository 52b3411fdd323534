"""Shared helpers for the figure-reproduction benchmarks.

Each benchmark regenerates one table/figure of the paper (one
``bench_figures.py`` case per experiment-table entry) and saves the
rendered report under ``results/`` (also echoed to stdout, visible with
``pytest -s``).  Environment knobs:

* ``REPRO_TRACE_LEN``  — dynamic instructions per benchmark (default 12000)
* ``REPRO_WORKLOADS``  — comma-separated suite subset
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def save_report():
    """Persist a rendered figure report and echo it."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(name: str, text: str) -> None:
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[saved to {path}]")

    return _save
