"""Million-instruction-scale traces must stream, not materialize.

``workload_trace`` memoizes only up to ``TRACE_CACHE_MAX``; the
executor's ``run()`` generates instructions on demand so memory is
bounded by architectural state, never by trace length."""

import itertools
import tracemalloc

from repro.isa.executor import FunctionalExecutor
from repro.workloads import (DEFAULT_TRACE_LENGTH, TRACE_CACHE_MAX,
                             build_workload, clear_trace_cache,
                             workload_trace)
from repro.workloads.suite import _trace_cache

WORKLOAD = "rawcaudio"


def stream(name, length=DEFAULT_TRACE_LENGTH, seed=0):
    """The lazy trace: one record at a time, nothing retained."""
    return FunctionalExecutor(build_workload(name, seed=seed), length).run()


class TestCachePolicy:
    def setup_method(self):
        clear_trace_cache()

    def teardown_method(self):
        clear_trace_cache()

    def test_short_traces_are_memoized(self):
        first = workload_trace(WORKLOAD, 5_000)
        assert workload_trace(WORKLOAD, 5_000) is first

    def test_long_traces_are_not_retained(self):
        length = TRACE_CACHE_MAX + 1
        trace = workload_trace(WORKLOAD, length)
        assert len(trace) == length
        assert not any(key[1] == length for key in _trace_cache)
        # A second call regenerates rather than returning the same list.
        assert workload_trace(WORKLOAD, length) is not trace

    def test_boundary_length_is_still_cached(self):
        trace = workload_trace(WORKLOAD, TRACE_CACHE_MAX)
        assert workload_trace(WORKLOAD, TRACE_CACHE_MAX) is trace


class TestStreaming:
    def test_iter_is_bit_identical_to_list(self):
        cached = workload_trace(WORKLOAD, 8_000)
        streamed = list(stream(WORKLOAD, 8_000))
        assert len(streamed) == len(cached)
        for a, b in zip(streamed, cached):
            assert a.seq == b.seq
            assert a.op is b.op
            assert a.pc == b.pc
            assert a.src_values == b.src_values
            assert a.result == b.result

    def test_iter_respects_dataset_and_seed(self):
        a = [d.result for d in
             itertools.islice(stream(WORKLOAD, seed=1), 2_000)]
        b = [d.result for d in
             itertools.islice(stream(WORKLOAD, seed=2), 2_000)]
        assert a != b

    def test_streaming_memory_is_bounded(self):
        """Consuming 120k streamed instructions must cost a small
        fraction of what materializing the same list costs."""
        length = 120_000

        tracemalloc.start()
        for _ in stream(WORKLOAD, length):
            pass
        _, streamed_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        tracemalloc.start()
        trace = list(stream(WORKLOAD, length))
        _, list_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert len(trace) == length

        # The streamed pass holds one DynInst at a time; the
        # materialized list holds 120k.  A 10x margin
        # keeps the assertion robust to allocator noise while still
        # catching any accidental buffering of the stream.
        assert streamed_peak * 10 < list_peak
