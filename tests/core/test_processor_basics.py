"""Timing-model tests: latencies, widths, stalls, and copy costs.

These pin the core semantics with small hand-built programs whose cycle
behaviour can be reasoned about exactly or bounded tightly.
"""

import pytest

from repro.core import make_config, simulate
from repro.isa import ProgramBuilder, execute
from repro.workloads import synthetic

from ..conftest import make_dyn


def run_program(builder_or_program, config, cap=20_000):
    program = (builder_or_program.build()
               if isinstance(builder_or_program, ProgramBuilder)
               else builder_or_program)
    return simulate(execute(program, cap), config)


def chain_loop_program(length, iters, op="add"):
    """A loop whose body is one serial chain of *length* ops.

    The chain's accumulator carries across iterations (the final ``andi``
    keeps values bounded but dependent), so steady-state cycles per
    iteration approximate ``length * latency(op)``.
    """
    b = ProgramBuilder()
    b.emit("li", "r1", 3)
    b.emit("li", "r6", 0)
    b.emit("li", "r7", iters)
    b.label("loop")
    for _ in range(length):
        b.emit(op, "r1", "r1", "r1")
    b.emit("andi", "r1", "r1", 255)
    b.emit("ori", "r1", "r1", 3)
    b.emit("addi", "r6", "r6", 1)
    b.emit("blt", "r6", "r7", "loop")
    b.emit("halt")
    return b


def cycles_per_iteration(length, op, iters=80):
    result = run_program(chain_loop_program(length, iters, op),
                         make_config(1), cap=100_000)
    return result.stats.cycles / iters


class TestDependenceLatencies:
    def test_back_to_back_adds_single_cycle(self):
        """Growing a 1-cycle chain by K ops adds ~K cycles/iteration."""
        short = cycles_per_iteration(10, "add")
        long = cycles_per_iteration(50, "add")
        assert 38 <= long - short <= 43

    def test_mul_chain_three_cycles_per_link(self):
        short = cycles_per_iteration(10, "mul")
        long = cycles_per_iteration(30, "mul")
        assert 58 <= long - short <= 64

    def test_independent_ops_reach_issue_width(self):
        result = simulate(execute(synthetic.parallel_chains(8, 16), 12_000),
                          make_config(1))
        assert result.ipc > 5.0

    def test_serial_chain_ipc_near_one(self):
        result = simulate(execute(synthetic.serial_chain(64), 8_000),
                          make_config(1))
        assert 0.85 < result.ipc < 1.3


class TestLoads:
    def test_load_use_latency_two_on_hit(self):
        """A pointer-chase link costs ~2 cycles (agen + D-cache hit).

        The chase runs inside a loop so caches are warm; comparing two
        chain lengths cancels the loop overhead.
        """
        def prog(links, iters=12):
            b = ProgramBuilder()
            cells = 16
            base = b.zeros("cells", cells)
            b.emit("li", "r1", base)
            b.emit("li", "r2", base + 4)
            b.emit("li", "r6", 0)
            b.emit("li", "r7", cells - 1)
            b.label("init")
            b.emit("sw", "r2", "r1", 0)
            b.emit("addi", "r1", "r1", 4)
            b.emit("addi", "r2", "r2", 4)
            b.emit("addi", "r6", "r6", 1)
            b.emit("blt", "r6", "r7", "init")
            b.emit("li", "r2", base)
            b.emit("sw", "r2", "r1", 0)   # close the ring
            b.emit("li", "r6", 0)
            b.emit("li", "r7", iters)
            b.emit("li", "r3", base)   # the pointer carries across iters
            b.label("outer")
            for _ in range(links):
                b.emit("lw", "r3", "r3", 0)
            b.emit("addi", "r6", "r6", 1)
            b.emit("blt", "r6", "r7", "outer")
            b.emit("halt")
            return b
        short = run_program(prog(16), make_config(1), cap=50_000)
        long = run_program(prog(64), make_config(1), cap=50_000)
        per_link = (long.stats.cycles - short.stats.cycles) / (12 * 48)
        assert 1.8 <= per_link <= 2.3

    def test_dcache_ports_cap_memory_throughput(self):
        """More than 3 parallel loads/cycle are port-limited."""
        b = ProgramBuilder()
        buf = b.data("buf", list(range(64)))
        b.emit("li", "r1", buf)
        b.emit("li", "r7", 0)
        b.label("loop")
        for i in range(6):
            b.emit("lw", f"r{8 + i}", "r1", 4 * i)
        b.emit("addi", "r7", "r7", 1)
        b.emit("li", "r6", 200)
        b.emit("blt", "r7", "r6", "loop")
        b.emit("halt")
        result = run_program(b, make_config(1))
        # 6 loads + 3 others per iteration; 3 ports => >= 2 cycles/iter
        # for memory alone; IPC must stay below the port-implied bound.
        assert result.ipc <= 5.0
        ports_config = make_config(1, dcache_ports=6)
        faster = run_program(b, ports_config)
        assert faster.ipc > result.ipc


class TestStoreLoadInteraction:
    def test_forwarding_roundtrip_bounded(self):
        result = simulate(execute(synthetic.store_load_pairs(64), 8_000),
                          make_config(1))
        assert result.ipc > 1.5

    def test_store_address_split_lets_later_loads_go(self):
        """A store whose data comes off a long chain must not block
        independent younger loads (address-based disambiguation)."""
        def prog(mul_chain):
            b = ProgramBuilder()
            buf = b.data("buf", list(range(16)))
            other = b.data("other", list(range(16)))
            b.emit("li", "r1", buf)
            b.emit("li", "r2", other)
            b.emit("li", "r7", 0)
            b.emit("li", "r6", 100)
            b.emit("li", "r3", 3)
            b.label("loop")
            for _ in range(mul_chain):          # slow data for the store
                b.emit("mul", "r3", "r3", "r3")
            b.emit("sw", "r3", "r1", 0)
            b.emit("lw", "r4", "r2", 0)         # independent address
            b.emit("add", "r5", "r4", "r4")
            b.emit("addi", "r7", "r7", 1)
            b.emit("blt", "r7", "r6", "loop")
            b.emit("halt")
            return b
        result = run_program(prog(4), make_config(1))
        # The loop is limited by the 4-mul chain (12 cycles), not by the
        # store: ~9 instructions / ~13 cycles.
        assert result.ipc > 0.55

    def test_same_address_load_waits_for_store_data(self):
        """A load must not forward from a same-address store whose data
        is still being computed; routing the loop-carried value through
        memory adds the store+forward latency to the chain."""
        def prog(through_memory):
            b = ProgramBuilder()
            buf = b.data("buf", [0])
            b.emit("li", "r1", buf)
            b.emit("li", "r7", 0)
            b.emit("li", "r6", 100)
            b.emit("li", "r4", 3)
            b.label("loop")
            b.emit("mul", "r3", "r4", "r4")
            if through_memory:
                b.emit("sw", "r3", "r1", 0)
                b.emit("lw", "r4", "r1", 0)   # forwarded store value
            else:
                b.emit("mov", "r4", "r3")
            b.emit("andi", "r4", "r4", 255)
            b.emit("ori", "r4", "r4", 2)
            b.emit("addi", "r7", "r7", 1)
            b.emit("blt", "r7", "r6", "loop")
            b.emit("halt")
            return b
        direct = run_program(prog(False), make_config(1)).stats.cycles
        via_mem = run_program(prog(True), make_config(1)).stats.cycles
        assert via_mem >= direct + 80   # ~1 extra cycle/iteration


class TestBranches:
    def test_mispredictions_cost_pipeline_refills(self):
        predictable = simulate(execute(synthetic.counted_loop(4), 8_000),
                               make_config(1))
        random_br = simulate(execute(synthetic.random_branches(512), 8_000),
                             make_config(1))
        assert predictable.ipc > 2 * random_br.ipc
        assert random_br.stats.branch_misprediction_rate > 0.08

    def test_branch_stats_populated(self):
        result = simulate(execute(synthetic.counted_loop(2), 4_000),
                          make_config(1))
        assert result.stats.cond_branches > 100
        assert result.stats.branch_misprediction_rate < 0.1


class TestClusteredBasics:
    def test_single_cluster_has_no_communications(self):
        result = simulate(execute(synthetic.serial_chain(16), 4_000),
                          make_config(1, predictor="stride"))
        assert result.stats.communications == 0
        assert result.stats.dispatched_copies == 0
        assert result.stats.dispatched_vcopies == 0

    def test_clustering_degrades_ipc(self):
        trace = execute(synthetic.parallel_chains(8, 16), 8_000)
        ipc1 = simulate(list(trace), make_config(1)).ipc
        ipc4 = simulate(list(trace), make_config(4)).ipc
        assert ipc4 < ipc1

    def test_copies_appear_only_with_clusters(self):
        trace = execute(synthetic.parallel_chains(8, 16), 8_000)
        result = simulate(list(trace), make_config(4))
        assert result.stats.dispatched_copies > 0
        assert result.comm_per_inst > 0

    def test_communication_latency_hurts(self):
        trace = execute(synthetic.parallel_chains(8, 16), 8_000)
        fast = simulate(list(trace), make_config(4, comm_latency=1)).ipc
        slow = simulate(list(trace), make_config(4, comm_latency=4)).ipc
        assert slow < fast

    def test_two_cycle_rename_costs_little(self):
        trace = execute(synthetic.counted_loop(4), 8_000)
        base = simulate(list(trace), make_config(4)).ipc
        deep = simulate(list(trace),
                        make_config(4, extra_rename_cycles=1)).ipc
        assert deep <= base
        assert deep > 0.85 * base


class TestFpSide:
    def test_fp_chain_uses_fp_latency(self):
        result = simulate(execute(synthetic.fp_chain(16), 6_000),
                          make_config(1))
        # fadd latency 2, serial chain: IPC ~ 1/2 plus loop overhead.
        assert result.ipc < 0.8

    def test_fp_ops_do_not_consume_int_width(self):
        b = ProgramBuilder()
        b.emit("li", "r1", 2)
        b.emit("cvtif", "f1", "r1")
        b.emit("li", "r7", 0)
        b.emit("li", "r6", 300)
        b.label("loop")
        for i in range(4):
            b.emit("addi", f"r{8 + i}", "r7", i)
        b.emit("fadd", f"f2", "f1", "f1")
        b.emit("fadd", f"f3", "f1", "f1")
        b.emit("addi", "r7", "r7", 1)
        b.emit("blt", "r7", "r6", "loop")
        b.emit("halt")
        result = run_program(b, make_config(1))
        assert result.ipc > 4.0


class TestStaticInstructionIdentity:
    """Decode facts belong to the static instruction, not to its pc.

    A hand-built trace can put two different instructions at one pc;
    each must still simulate as itself.
    """

    @staticmethod
    def trace(div_pc):
        return [
            make_dyn(0, 0x1000, op="li", dest=1, result=7),
            make_dyn(1, 0x1004, op="li", dest=2, result=3),
            make_dyn(2, div_pc, op="div", dest=3, srcs=(1, 2),
                     src_values=(7, 3), result=2),
            make_dyn(3, 0x1010, op="add", dest=4, srcs=(3, 1),
                     src_values=(2, 7), result=9),
        ]

    @pytest.mark.parametrize("n_clusters,cycles", [(1, 65), (4, 67)])
    @pytest.mark.parametrize("predictor", ["none", "stride"])
    def test_two_instructions_at_one_pc(self, n_clusters, cycles,
                                        predictor):
        config = make_config(n_clusters, predictor=predictor)
        # 0x100c is in the first li's I-cache line, so fetch is the same.
        shared = simulate(self.trace(0x1000), config).to_dict()
        apart = simulate(self.trace(0x100c), config).to_dict()
        assert shared == apart
        assert shared["cycles"] == cycles
