# Developer entry points. The repo has no build step; these wrap the
# test suite, the figure benchmarks, and the robustness harness.

PYTHON ?= python
PYTHONPATH := src

export PYTHONPATH

# Opt-in content-addressed sweep result cache (docs/PERFORMANCE.md):
# `make benchmarks CACHE_DIR=.repro_cache` memoizes every cell on disk,
# so re-running figures after a doc or analysis change is nearly free.
CACHE_DIR ?=
ifneq ($(CACHE_DIR),)
export REPRO_CACHE := $(CACHE_DIR)
endif

.PHONY: test benchmarks bench-suite bench-wallclock bench-smoke \
	cache-stats cache-clear campaign check clean-results obs-check \
	report sample-check telemetry-check trace-demo

test:
	$(PYTHON) -m pytest tests/ -x -q

benchmarks:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q

# The repository benchmark (benchmarks/suite/README.md, BENCHMARK.json):
# every workload's end-to-end metrics plus its correctness gate.
bench-suite:
	$(PYTHON) benchmarks/suite/run.py

# Serial-vs-parallel sweep wall-clock; appends to BENCH_sweep.json.
bench-wallclock:
	$(PYTHON) benchmarks/bench_wallclock.py

# Sub-minute sweep gate (docs/PERFORMANCE.md): chunked warm-pool
# parallel must beat serial on multi-core hosts, a cold -> warm cache
# cycle must rerun with zero simulations — all metric-identical — and
# serial insts/s must stay within 20% of this host's best recorded
# smoke_guard entry in BENCH_sweep.json.
bench-smoke:
	$(PYTHON) benchmarks/bench_smoke.py

# Result-cache maintenance (honours CACHE_DIR / REPRO_CACHE).
cache-stats:
	$(PYTHON) -m repro cache stats

cache-clear:
	$(PYTHON) -m repro cache clear

# Observability gate (docs/OBSERVABILITY.md): traced runs must stay
# bit-identical to untraced ones, trace files must validate against
# their schemas, ring-buffer tracing must cost < 10% wall-clock, and a
# run with observability off must not allocate in any repro.obs module
# (tracemalloc audit).
obs-check:
	$(PYTHON) benchmarks/obs_check.py

# Sweep-telemetry gate (docs/OBSERVABILITY.md): monitoring a 30-cell
# sweep must cost < 2% wall-clock and stay bit-identical to the
# unmonitored run, the telemetry JSONL and run receipts must validate
# against their schemas, and receipt cache counters must match the
# simulate calls that actually happened (cold and warm).
telemetry-check:
	$(PYTHON) benchmarks/telemetry_check.py

# Sampled-simulation gate (docs/SAMPLING.md): a million-instruction
# sampled run must deliver >= 20x the detailed model's effective
# insts/s with <= 2% IPC error, both snapshot kinds must round-trip
# bit-identically (save -> restore -> resume == uninterrupted), and a
# sampled sweep cell's run receipt must validate with its sampling
# block intact.
sample-check:
	$(PYTHON) benchmarks/sample_check.py

# Performance dashboard: BENCH_sweep.json history rendered as markdown
# with throughput-regression flags (docs/PERFORMANCE.md).
report:
	$(PYTHON) -m repro report

# A taste of the instrumentation: ASCII pipeline diagram of a window
# of the dynamic stream plus a Perfetto-loadable trace in results/.
trace-demo:
	mkdir -p results
	$(PYTHON) -m repro trace cjpeg --length 4000 --predictor stride \
		--steering vpb --first-seq 200 --count 24 \
		--out results/trace_demo.json

# The robustness campaign: seeds x fault kinds under the golden model,
# report in results/robustness_campaign.txt (the same campaign as
# benchmarks/bench_robustness.py), exit 1 on any regression.
campaign:
	$(PYTHON) -m repro campaign --length 4000

# The full gate: unit suite plus a small campaign smoke.  Its report goes
# to build/: results/robustness_campaign.txt is the benchmark's campaign
# (benchmarks/bench_robustness.py), not this smoke's.
check: test
	$(PYTHON) -m repro campaign --workloads rawcaudio --length 2000 --seeds 2 \
		--output build/check_campaign.txt

clean-results:
	rm -rf results/
