"""End-of-run invariants: nothing leaks, everything retires, stats add up."""

import pytest

from repro.core import make_config
from repro.core.processor import Processor
from repro.isa import execute
from repro.isa.registers import NUM_LOGICAL_REGS
from repro.workloads import synthetic, workload_trace


def run_processor(trace, config):
    processor = Processor(config, iter(list(trace)))
    result = processor.run()
    return processor, result


CONFIG_MATRIX = [
    dict(n_clusters=1),
    dict(n_clusters=4),
    dict(n_clusters=4, predictor="stride", steering="vpb"),
    dict(n_clusters=2, predictor="perfect", steering="vpb"),
    dict(n_clusters=4, predictor="stride", steering="modified",
         comm_paths_per_cluster=1),
]


@pytest.fixture(scope="module")
def mixed_trace():
    return workload_trace("cjpeg", 4000)


@pytest.mark.parametrize("overrides", CONFIG_MATRIX)
class TestDrainInvariants:
    def test_everything_retires_and_structures_drain(self, overrides,
                                                     mixed_trace):
        kwargs = dict(overrides)
        n_clusters = kwargs.pop("n_clusters")
        processor, result = run_processor(mixed_trace,
                                          make_config(n_clusters, **kwargs))
        stats = result.stats
        assert stats.committed_insts == len(mixed_trace)
        assert not processor.rob
        for cluster in processor.clusters:
            assert cluster.occupancy == 0
        assert not processor._pending_store_addrs
        assert not any(processor._inflight_stores.values())

    def test_no_physical_register_leak(self, overrides, mixed_trace):
        """After draining, every allocated register backs a valid map
        field (architectural mappings plus still-live replicas, which
        are only reclaimed by the logical register's next writer)."""
        kwargs = dict(overrides)
        n_clusters = kwargs.pop("n_clusters")
        processor, _ = run_processor(mixed_trace,
                                     make_config(n_clusters, **kwargs))
        unit = processor.renamer
        allocated = sum(sum(flags) for banks in unit.allocated
                        for flags in banks)
        total_mapped = sum(len(unit.mapped_clusters(logical))
                           for logical in range(NUM_LOGICAL_REGS))
        assert allocated == total_mapped
        for logical in range(NUM_LOGICAL_REGS):
            assert len(unit.mapped_clusters(logical)) >= 1

    def test_stats_arithmetic(self, overrides, mixed_trace):
        kwargs = dict(overrides)
        n_clusters = kwargs.pop("n_clusters")
        _, result = run_processor(mixed_trace,
                                  make_config(n_clusters, **kwargs))
        stats = result.stats
        assert stats.cycles > 0
        assert stats.issued_uops >= (stats.committed_insts
                                     + stats.committed_copies
                                     + stats.committed_vcopies)
        assert stats.dispatched_insts == stats.committed_insts
        assert stats.committed_copies == stats.dispatched_copies
        assert stats.committed_vcopies == stats.dispatched_vcopies
        assert stats.mismatch_forwards <= stats.communications
        assert sum(stats.dispatch_per_cluster) == stats.dispatched_insts
        assert stats.mispredicted_operands <= stats.speculative_operands
        if n_clusters == 1:
            assert stats.communications == 0


class TestDeterminism:
    def test_same_trace_same_config_same_stats(self):
        trace = workload_trace("rawcaudio", 3000)
        config = make_config(4, predictor="stride", steering="vpb")
        a = run_processor(trace, config)[1]
        b = run_processor(trace, config)[1]
        assert a.stats.cycles == b.stats.cycles
        assert a.stats.communications == b.stats.communications
        assert a.stats.invalidations == b.stats.invalidations
        assert a.imbalance == b.imbalance

    def test_fresh_config_objects_equivalent(self):
        trace = workload_trace("rawcaudio", 3000)
        a = run_processor(trace, make_config(2, predictor="stride"))[1]
        b = run_processor(trace, make_config(2, predictor="stride"))[1]
        assert a.stats.cycles == b.stats.cycles


class TestWatchdog:
    def test_watchdog_raises_not_hangs(self):
        """A pathologically tiny deadlock window trips the watchdog
        rather than looping forever."""
        from repro.errors import SimulationError
        trace = execute(synthetic.serial_chain(64), 3_000)
        config = make_config(1, deadlock_cycles=1)
        with pytest.raises(SimulationError):
            run_processor(trace, config)

    def test_max_cycles_cuts_run_short(self):
        trace = workload_trace("cjpeg", 4000)
        processor = Processor(make_config(1), iter(list(trace)))
        result = processor.run(max_cycles=50)
        assert result.stats.cycles == 50
        assert result.stats.committed_insts < len(trace)


class TestUtilizationStats:
    def test_per_cluster_issue_counts_sum(self, mixed_trace):
        _, result = run_processor(mixed_trace,
                                  make_config(4, predictor="stride",
                                              steering="vpb"))
        stats = result.stats
        assert sum(stats.issued_per_cluster) == stats.issued_uops
        assert all(count >= 0 for count in stats.issued_per_cluster)

    def test_occupancy_and_utilization_bounded(self, mixed_trace):
        config = make_config(4)
        _, result = run_processor(mixed_trace, config)
        occupancy = result.stats.avg_iq_occupancy()
        assert len(occupancy) == 4
        assert all(0 <= o <= 2 * config.iq_size + 2 for o in occupancy)
        width = config.int_issue_width + config.fp_issue_width
        utilization = result.stats.issue_utilization(width)
        assert all(0 <= u <= 1.0 for u in utilization)

    def test_exports_in_to_dict(self, mixed_trace):
        _, result = run_processor(mixed_trace, make_config(2))
        data = result.to_dict()
        assert len(data["issued_per_cluster"]) == 2
        assert len(data["avg_iq_occupancy"]) == 2
