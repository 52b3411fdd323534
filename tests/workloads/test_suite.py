"""Tests of the workload suite registry and trace caching."""

import pytest

from repro.errors import WorkloadError
from repro.isa.opcodes import OpClass
from repro.workloads import (SUITE, build_workload, clear_trace_cache,
                             workload_names, workload_trace)


class TestRegistry:
    def test_fifteen_benchmarks_in_paper_order(self):
        names = workload_names()
        assert len(names) == 15
        assert names[0] == "cjpeg"
        assert names[-1] == "rawcaudio"
        assert "mpeg2enc" in names and "pgpenc" in names

    def test_categories_match_table2(self):
        categories = {spec.category for spec in SUITE.values()}
        assert categories == {"image", "audio", "video", "3D graphics",
                              "encryption"}
        assert SUITE["mesaosdemo"].category == "3D graphics"
        assert SUITE["pgpdec"].category == "encryption"

    def test_paper_instruction_counts_recorded(self):
        assert SUITE["g721enc"].paper_minsts == pytest.approx(440.6)
        assert SUITE["djpeg"].paper_minsts == pytest.approx(6.0)

    def test_unknown_workload_raises_with_choices(self):
        with pytest.raises(KeyError, match="cjpeg"):
            build_workload("nonesuch")

    def test_unknown_dataset_raises_workload_error(self):
        with pytest.raises(WorkloadError, match="'test', 'train'"):
            build_workload("cjpeg", dataset="bogus")


@pytest.mark.parametrize("name", workload_names())
class TestEveryBenchmark:
    def test_builds_and_produces_requested_trace(self, name):
        trace = workload_trace(name, 3000)
        assert len(trace) == 3000
        assert trace[0].seq == 0
        assert trace[-1].seq == 2999

    def test_trace_has_memory_and_branch_activity(self, name):
        trace = workload_trace(name, 3000)
        loads = sum(1 for d in trace if d.is_load)
        branches = sum(1 for d in trace if d.is_cond_branch)
        assert loads / len(trace) > 0.03
        assert branches / len(trace) > 0.03


class TestCategoryCharacter:
    def test_3d_benchmarks_have_fp_work(self):
        for name in ("mesamipmap", "mesaosdemo", "mesatexgen"):
            trace = workload_trace(name, 6000)
            fp = sum(1 for d in trace if not d.op.is_int)
            assert fp / len(trace) > 0.10, name

    def test_integer_benchmarks_have_no_fp(self):
        for name in ("cjpeg", "pgpenc", "rawcaudio"):
            trace = workload_trace(name, 6000)
            assert all(d.op.is_int for d in trace), name

    def test_crypto_uses_multiplies_heavily(self):
        trace = workload_trace("pgpenc", 6000)
        muls = sum(1 for d in trace if d.opclass is OpClass.IMUL)
        assert muls / len(trace) > 0.10

    def test_g721_uses_real_divides(self):
        trace = workload_trace("g721enc", 8000)
        divs = sum(1 for d in trace if d.opclass is OpClass.IDIV)
        assert divs > 0


class TestTraceCache:
    def test_cache_returns_same_object(self):
        clear_trace_cache()
        a = workload_trace("cjpeg", 1000)
        b = workload_trace("cjpeg", 1000)
        assert a is b

    def test_different_lengths_are_distinct_entries(self):
        a = workload_trace("cjpeg", 1000)
        b = workload_trace("cjpeg", 1500)
        assert a is not b
        assert len(b) == 1500

    def test_clear_cache(self):
        a = workload_trace("cjpeg", 1000)
        clear_trace_cache()
        b = workload_trace("cjpeg", 1000)
        assert a is not b

    def test_traces_are_deterministic(self):
        clear_trace_cache()
        a = [(d.pc, d.result) for d in workload_trace("gsmdec", 2000)]
        clear_trace_cache()
        b = [(d.pc, d.result) for d in workload_trace("gsmdec", 2000)]
        assert a == b


class TestDatasets:
    def test_datasets_share_code_differ_in_data(self):
        from repro.isa import execute
        test_prog = build_workload("cjpeg", dataset="test")
        train_prog = build_workload("cjpeg", dataset="train")
        assert ([i.op.name for i in test_prog.instructions]
                == [i.op.name for i in train_prog.instructions])
        a = execute(test_prog, 1000)
        b = execute(train_prog, 1000)
        assert any(x.result != y.result for x, y in zip(a, b)
                   if x.result is not None)

    def test_trace_cache_keyed_by_dataset(self):
        a = workload_trace("rawcaudio", 800, dataset="test")
        b = workload_trace("rawcaudio", 800, dataset="train")
        assert a is not b
        assert a is workload_trace("rawcaudio", 800, dataset="test")

    def test_unknown_dataset_rejected(self):
        with pytest.raises(KeyError, match="train"):
            build_workload("cjpeg", dataset="huge")
