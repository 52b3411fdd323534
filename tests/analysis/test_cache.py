"""Content-addressed result cache: keying, round-trip fidelity,
zero-simulation warm sweeps, and opt-in resolution."""

import os
import pickle

import pytest

from repro.analysis import cache as cache_mod
from repro.analysis.cache import (DEFAULT_CACHE_DIR, ResultCache,
                                  cell_key, code_version, resolve_cache,
                                  use_cache)
from repro.analysis.parallel import SweepCell, run_cells
from repro.analysis.sampling import SamplingConfig
from repro.errors import ConfigError

LEN = 400


def _cells():
    return [SweepCell(key=(name, n), workload=name, n_clusters=n,
                      length=LEN)
            for name in ("rawcaudio", "gsmdec") for n in (1, 2)]


class TestKeying:
    def test_key_is_deterministic(self):
        cell = _cells()[0]
        assert cell_key(cell) == cell_key(cell)

    def test_key_covers_every_cell_input(self):
        base = SweepCell(key="k", workload="rawcaudio", n_clusters=2,
                         length=LEN)
        variants = [
            SweepCell(key="k", workload="gsmdec", n_clusters=2, length=LEN),
            SweepCell(key="k", workload="rawcaudio", n_clusters=4,
                      length=LEN),
            SweepCell(key="k", workload="rawcaudio", n_clusters=2,
                      length=LEN + 1),
            SweepCell(key="k", workload="rawcaudio", n_clusters=2,
                      length=LEN, seed=7),
            SweepCell(key="k", workload="rawcaudio", n_clusters=2,
                      length=LEN, dataset="train"),
            SweepCell(key="k", workload="rawcaudio", n_clusters=2,
                      length=LEN, predictor="stride", steering="vpb"),
            SweepCell(key="k", workload="rawcaudio", n_clusters=2,
                      length=LEN,
                      overrides=SweepCell.pack_overrides(
                          {"comm_latency": 4})),
        ]
        keys = {cell_key(cell) for cell in [base] + variants}
        assert len(keys) == len(variants) + 1

    def test_key_ignores_result_dict_key(self):
        # The cell's `key` indexes the caller's result dict; it is not
        # part of the simulation's identity.
        a = SweepCell(key="a", workload="rawcaudio", n_clusters=2,
                      length=LEN)
        b = SweepCell(key=("something", "else"), workload="rawcaudio",
                      n_clusters=2, length=LEN)
        assert cell_key(a) == cell_key(b)

    def test_key_includes_code_version(self, monkeypatch):
        cell = _cells()[0]
        before = cell_key(cell)
        monkeypatch.setattr(cache_mod, "_code_version", "deadbeef")
        assert cell_key(cell) != before

    def test_key_payload_is_pinned(self, monkeypatch):
        """Pinned keys of an exact and a sampled cell under a fixed code
        version: changing the payload renames every entry, so it must
        be deliberate."""
        monkeypatch.setattr(cache_mod, "_code_version", "0123456789abcdef")
        exact = SweepCell(key="k", workload="rawcaudio", n_clusters=2,
                          length=LEN)
        sampled = SweepCell(
            key="k", workload="gsmdec", n_clusters=4, predictor="stride",
            steering="vpb", length=1000, seed=1, dataset="train",
            overrides=(("comm_latency", 4),),
            sampling=SamplingConfig(interval=1200, warmup=200, samples=8))
        assert cell_key(exact) == ("db5c0abe6589e79008310dbdcd220e74"
                                   "b8e2fe99bd6102bec086bf5678148d4d")
        assert cell_key(sampled) == ("47f2920cb59b44e930189c5b2504f489"
                                     "99a78cdfdcf65980a6f12e429385b121")

    def test_code_version_is_stable_hex(self):
        assert code_version() == code_version()
        int(code_version(), 16)  # hex digest prefix


class TestWarmSweep:
    def test_warm_rerun_is_identical_and_simulates_nothing(
            self, tmp_path, monkeypatch):
        cells = _cells()
        cache = ResultCache(tmp_path)
        uncached = run_cells(cells, jobs=1)
        cold = run_cells(cells, jobs=1, cache=cache)
        assert cache.stats.misses == len(cells)
        assert cache.stats.stores == len(cells)

        # Poison the simulation path: a warm sweep must never reach it.
        def boom(*args, **kwargs):
            raise AssertionError("simulate called on a warm cache")

        monkeypatch.setattr("repro.analysis.parallel.simulate", boom)
        warm = run_cells(cells, jobs=1, cache=cache)
        assert cache.stats.hits == len(cells)
        for key in uncached:
            assert warm[key].to_dict() == uncached[key].to_dict()
            assert warm[key].to_dict() == cold[key].to_dict()
            # Byte-identical through the pickle round-trip.
            assert (pickle.dumps(warm[key].to_dict())
                    == pickle.dumps(uncached[key].to_dict()))

    def test_cache_hits_report_zero_timings(self, tmp_path):
        cells = _cells()
        cache = ResultCache(tmp_path)
        run_cells(cells, jobs=1, cache=cache)
        timings = {}
        run_cells(cells, jobs=1, cache=cache, timings=timings)
        assert all(seconds == 0.0 for seconds in timings.values())

    def test_invalid_cell_is_uncacheable_but_still_ledgered(
            self, tmp_path):
        from repro.analysis.experiments import ErrorLedger
        cells = _cells()
        cells.insert(1, SweepCell(key="bad", workload="nope",
                                  n_clusters=2, length=LEN))
        cache = ResultCache(tmp_path)
        ledger_a, ledger_b = ErrorLedger(), ErrorLedger()
        cold = run_cells(cells, jobs=1, cache=cache, ledger=ledger_a)
        warm = run_cells(cells, jobs=1, cache=cache, ledger=ledger_b)
        assert "bad" not in cold and "bad" not in warm
        assert ledger_a.entries == ledger_b.entries
        assert list(cold.keys()) == list(warm.keys())

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cells = _cells()[:1]
        cache = ResultCache(tmp_path)
        run_cells(cells, jobs=1, cache=cache)
        (entry,) = cache.entries()
        entry.write_bytes(b"not a pickle")
        fresh = ResultCache(tmp_path)
        results = run_cells(cells, jobs=1, cache=fresh)
        assert fresh.stats.misses == 1
        assert results  # re-simulated and re-stored
        assert len(fresh.entries()) == 1

    def test_clear_removes_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_cells(_cells(), jobs=1, cache=cache)
        assert len(cache.entries()) == 4
        assert cache.clear() == 4
        assert cache.entries() == []
        assert cache.size_bytes() == 0


class TestResolution:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert resolve_cache() is None

    def test_env_falsy_disables(self, monkeypatch):
        for value in ("", "0", "false", "off"):
            monkeypatch.setenv("REPRO_CACHE", value)
            assert resolve_cache() is None

    def test_env_truthy_uses_default_dir(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "1")
        cache = resolve_cache()
        assert str(cache.root) == DEFAULT_CACHE_DIR

    def test_env_path_is_the_cache_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "sweepcache"))
        cache = resolve_cache()
        assert cache.root == tmp_path / "sweepcache"

    def test_explicit_dir_wins_over_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert resolve_cache(str(tmp_path)).root == tmp_path
        with pytest.raises(ConfigError):
            resolve_cache("   ")

    def test_use_cache_context_wins_over_env(self, monkeypatch, tmp_path,
                                             ):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "env"))
        pinned = ResultCache(tmp_path / "pinned")
        with use_cache(pinned):
            run_cells(_cells()[:1], jobs=1)
        assert pinned.stats.misses == 1
        assert not (tmp_path / "env").exists()

    def test_use_cache_none_disables_env_opt_in(self, monkeypatch,
                                                tmp_path):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "env"))
        with use_cache(None):
            run_cells(_cells()[:1], jobs=1)
        assert not (tmp_path / "env").exists()

    def test_env_opt_in_reaches_run_cells(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "env"))
        run_cells(_cells()[:1], jobs=1)
        assert (tmp_path / "env").is_dir()
