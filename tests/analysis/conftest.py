"""Experiment-table rows shared by the analysis tests.

Every entry of the experiment table runs at most once per session, on
one short workload, through one result cache, so the entry, export and
report tests (and the CLI runs checked against them) share its cells.
"""

import pytest

from repro.analysis import EXPERIMENTS, ResultCache, run_experiment, use_cache

TINY = ["rawcaudio"]
LEN = 1000


@pytest.fixture(scope="session")
def experiment_cache(tmp_path_factory):
    return ResultCache(tmp_path_factory.mktemp("experiment-cache"))


@pytest.fixture(scope="session")
def experiment_rows(experiment_cache):
    """``name -> rows`` of that entry on :data:`TINY` at :data:`LEN`."""
    rows = {}

    def get(name):
        if name not in rows:
            with use_cache(experiment_cache):
                rows[name] = run_experiment(EXPERIMENTS[name], TINY, LEN)
        return rows[name]
    return get
