"""Tests of the value-speculation machinery (§2.2).

Covers local speculative dispatch with producer-side verification,
verification-copies for remote operands (match = no communication,
mismatch = forward + selective reissue), the oracle predictor, and the
statistics that Figure 5 relies on.
"""

from repro.core import make_config, simulate
from repro.isa import ProgramBuilder, execute
from repro.workloads import synthetic, workload_trace
from repro.workloads.datagen import noise_words


def strided_consumer_program(iters=200):
    """A loop whose loop-carried value is perfectly stride-predictable
    but produced by a long-latency chain: prime value-speculation bait.
    """
    b = ProgramBuilder()
    b.emit("li", "r1", 0)        # induction, stride 1
    b.emit("li", "r7", iters)
    b.emit("li", "r3", 7)
    b.label("loop")
    b.emit("mul", "r2", "r3", "r3")     # slow, irrelevant
    b.emit("mul", "r2", "r2", "r3")
    b.emit("addi", "r1", "r1", 1)       # stride-1 producer
    b.emit("add", "r4", "r1", "r1")     # consumer of predictable r1
    b.emit("blt", "r1", "r7", "loop")
    b.emit("halt")
    return b.build()


def unpredictable_program(iters=300):
    """Loop-carried values that no stride predictor can track."""
    b = ProgramBuilder()
    base = b.data("noise", noise_words(99, 256, bits=16))
    b.emit("li", "r1", base)
    b.emit("li", "r6", 0)
    b.emit("li", "r7", iters)
    b.emit("li", "r3", 1)
    b.label("loop")
    b.emit("lw", "r2", "r1", 0)
    b.emit("mul", "r3", "r3", "r2")     # chain on noisy data
    b.emit("andi", "r3", "r3", 4095)
    b.emit("ori", "r3", "r3", 1)
    b.emit("addi", "r1", "r1", 4)
    b.emit("addi", "r6", "r6", 1)
    b.emit("blt", "r6", "r7", "loop")
    b.emit("halt")
    return b.build()


class TestLocalSpeculation:
    def test_speculation_statistics_populated(self):
        trace = execute(strided_consumer_program(), 8_000)
        result = simulate(list(trace), make_config(1, predictor="stride"))
        assert result.stats.speculative_operands > 0
        assert result.vp_stats["lookups"] > 0
        assert result.vp_stats["confident_fraction"] > 0.3

    def test_no_speculation_without_predictor(self):
        trace = execute(strided_consumer_program(), 8_000)
        result = simulate(list(trace), make_config(1))
        assert result.stats.speculative_operands == 0
        assert result.stats.invalidations == 0
        assert result.vp_stats["lookups"] == 0

    def test_mispredicted_speculations_cause_reissue(self):
        trace = execute(unpredictable_program(), 8_000)
        result = simulate(list(trace), make_config(1, predictor="stride"))
        if result.stats.mispredicted_operands:
            assert result.stats.invalidations > 0
        # Every reissue shows up as an extra issue event.
        assert (result.stats.issued_uops
                >= result.stats.committed_insts)

    def test_correct_results_regardless_of_speculation(self):
        """Committed instruction count must equal the trace length."""
        trace = execute(unpredictable_program(), 8_000)
        for predictor in ("none", "stride", "perfect"):
            result = simulate(list(trace),
                              make_config(1, predictor=predictor))
            assert result.stats.committed_insts == len(trace)

    def test_speculation_speeds_up_predictable_chains(self):
        trace = execute(strided_consumer_program(), 8_000)
        plain = simulate(list(trace), make_config(1)).ipc
        spec = simulate(list(trace),
                        make_config(1, predictor="stride")).ipc
        assert spec >= plain * 0.98  # never much worse

    def test_oracle_never_invalidates(self):
        trace = execute(unpredictable_program(), 8_000)
        result = simulate(list(trace), make_config(1, predictor="perfect"))
        assert result.stats.invalidations == 0
        assert result.stats.mispredicted_operands == 0


class TestRemoteSpeculation:
    def test_vcopies_replace_copies_for_predictable_values(self):
        trace = execute(synthetic.counted_loop(6), 10_000)
        plain = simulate(list(trace), make_config(4))
        spec = simulate(list(trace), make_config(4, predictor="stride"))
        assert spec.stats.dispatched_vcopies > 0
        assert spec.comm_per_inst < plain.comm_per_inst

    def test_correct_vcopies_do_not_communicate(self):
        """Communications = copies + mismatch forwards only."""
        trace = execute(synthetic.counted_loop(6), 10_000)
        result = simulate(list(trace), make_config(4, predictor="stride"))
        stats = result.stats
        assert stats.communications < (stats.dispatched_copies
                                       + stats.dispatched_vcopies)
        assert stats.mismatch_forwards <= stats.communications

    def test_mismatch_forwards_counted_for_noisy_values(self):
        trace = execute(unpredictable_program(1000), 10_000)
        result = simulate(list(trace),
                          make_config(4, predictor="stride",
                                      steering="vpb"))
        # Mispredicted remote operands pay the wire after all.
        assert result.stats.committed_insts == len(trace)

    def test_oracle_leaves_only_fp_communications(self):
        trace = execute(synthetic.counted_loop(6), 10_000)
        result = simulate(list(trace), make_config(4, predictor="perfect",
                                                   steering="vpb"))
        assert result.stats.communications == 0  # int-only workload

    def test_fp_operands_never_predicted(self):
        """Exactly the integer, non-zero-register operands are looked up,
        each once: fp operands never reach the predictor, and an
        instruction whose decode stalls on registers or queue space,
        after its prediction, reuses that prediction when it retries."""
        from repro.isa.registers import ZERO_REG, is_fp_reg
        cells = [("fp_chain", execute(synthetic.fp_chain(8), 8_000), 4,
                  "perfect")]
        for workload in ("cjpeg", "gsmdec"):
            trace = workload_trace(workload, 3_000)
            cells += [(workload, trace, n_clusters, predictor)
                      for n_clusters in (1, 2, 4)
                      for predictor in ("stride", "context")]
        for name, trace, n_clusters, predictor in cells:
            steering = "baseline" if n_clusters == 1 else "vpb"
            result = simulate(list(trace), make_config(
                n_clusters, predictor=predictor, steering=steering))
            cell = (name, n_clusters, predictor)
            int_operands = sum(
                sum(1 for s in d.srcs if s != ZERO_REG and not is_fp_reg(s))
                for d in trace)
            assert result.vp_stats["lookups"] == int_operands, cell
            stalls = result.stats.decode_stalls
            assert stalls.get("pregs", 0) + stalls.get("iq", 0) > 0, cell


class TestVerificationGating:
    def test_commit_count_exact_under_heavy_speculation(self):
        trace = execute(unpredictable_program(1500), 12_000)
        for n_clusters in (1, 2, 4):
            result = simulate(list(trace),
                              make_config(n_clusters, predictor="stride",
                                          steering="vpb"))
            assert result.stats.committed_insts == len(trace)

    def test_value_misprediction_rate_sane(self):
        trace = execute(unpredictable_program(1500), 12_000)
        result = simulate(list(trace), make_config(1, predictor="stride"))
        assert 0.0 <= result.stats.value_misprediction_rate <= 1.0
