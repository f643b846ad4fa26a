PYTHON ?= python
PYTHONPATH := src

# Scratch directory for benchmark run output.  Recorded baselines live
# under benchmarks/BENCH_*.json; the per-run JSON the pytest-benchmark
# plugin writes is transient and must never land in the repo root.
BENCH_DIR ?= .bench

# `make serve` demo knobs.
RESULT ?= demo-study
PORT ?= 8080

# `make fuzz` knobs.
FUZZ_SEED ?= 0
FUZZ_ROUNDS ?= 25

.PHONY: test bench bench-all bench-check bench-stream bench-serve bench-qa \
	bench-scaling bench-columnar bench-campaign bench-campaign-scale \
	bench-mitigate bench-ingest fuzz fuzz-smoke serve clean

test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

# The end-to-end pipeline benchmark (collection + analysis over the
# 6-service subset) — the number the fast-path work is measured by.
bench:
	@mkdir -p $(BENCH_DIR)
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest \
		benchmarks/test_bench_pipeline.py --benchmark-only \
		--benchmark-json=$(BENCH_DIR)/BENCH_pipeline.json -q

# Streaming throughput (flows/sec through the bus + sharded analyzers).
bench-stream:
	@mkdir -p $(BENCH_DIR)
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest \
		benchmarks/test_bench_stream.py --benchmark-only \
		--benchmark-json=$(BENCH_DIR)/BENCH_stream.json -q

# Serving throughput + latency: closed-loop load against the live HTTP
# server (warm-cache >= 1,000 req/s acceptance bar, p50/p99 recorded),
# checked against the recorded baseline (first run records it).
bench-serve:
	@mkdir -p $(BENCH_DIR)
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest \
		benchmarks/test_bench_serve.py --benchmark-only \
		--benchmark-json=$(BENCH_DIR)/BENCH_serve.json -q
	$(PYTHON) benchmarks/check_regression.py $(BENCH_DIR)/BENCH_serve.json \
		--baseline benchmarks/BENCH_serve.json

# Executor scaling (serial, and process at 2 and 4 workers), binary-codec
# vs JSONL load, and cold-vs-warm cache speedup.  Runs without
# --benchmark-only so the direct acceptance asserts (codec faster than
# JSON, warm cache >= 5x) execute too; checked against the recorded
# baseline (first run records it).
bench-scaling:
	@mkdir -p $(BENCH_DIR)
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest \
		benchmarks/test_bench_scaling.py \
		--benchmark-json=$(BENCH_DIR)/BENCH_scaling.json -q
	$(PYTHON) benchmarks/check_regression.py $(BENCH_DIR)/BENCH_scaling.json \
		--baseline benchmarks/BENCH_scaling.json --tolerance 0.50

# Columnar aggregation engine vs the row-wise reference over a large
# synthetic study (480 cells, 240k leak events).  Runs without
# --benchmark-only so the direct acceptance assert executes too:
# columnar must be >= 5x (recorded number targets >= 10x) and
# byte-identical; checked against the recorded baseline (first run
# records it).
bench-columnar:
	@mkdir -p $(BENCH_DIR)
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest \
		benchmarks/test_bench_columnar.py \
		--benchmark-json=$(BENCH_DIR)/BENCH_columnar.json -q
	$(PYTHON) benchmarks/check_regression.py $(BENCH_DIR)/BENCH_columnar.json \
		--baseline benchmarks/BENCH_columnar.json --tolerance 0.50

# Campaign engine: simulation throughput (sessions/sec, serial vs the
# process pool) and shard-merge throughput over a 10k-user synthetic
# campaign.  Runs without --benchmark-only so the direct acceptance
# asserts execute too: byte-identity against the serial reference
# everywhere, and process >= 2x serial on multi-core hosts; checked
# against the recorded baseline (first run records it).
bench-campaign:
	@mkdir -p $(BENCH_DIR)
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest \
		benchmarks/test_bench_campaign.py \
		--benchmark-json=$(BENCH_DIR)/BENCH_campaign.json -q
	$(PYTHON) benchmarks/check_regression.py $(BENCH_DIR)/BENCH_campaign.json \
		--baseline benchmarks/BENCH_campaign.json --tolerance 0.50

# The million-user reduction bench: master- vs worker-side reduction
# over KIND_CAGG partials covering 1,000,000 users, users/sec and peak
# RSS recorded.  Runs without --benchmark-only so the direct acceptance
# asserts execute too: byte-identity between both reduce paths, and
# worker-reduce >= 2x master-reduce at 4 workers on multi-core hosts;
# checked against the recorded baseline (first run records it).
bench-campaign-scale:
	@mkdir -p $(BENCH_DIR)
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest \
		benchmarks/test_bench_campaign_scale.py \
		--benchmark-json=$(BENCH_DIR)/BENCH_campaign_scale.json -q
	$(PYTHON) benchmarks/check_regression.py $(BENCH_DIR)/BENCH_campaign_scale.json \
		--baseline benchmarks/BENCH_campaign_scale.json --tolerance 0.50

# Mitigation data plane: inline decision latency (p50/p99) and
# collection throughput with the policy on vs off.  Runs without
# --benchmark-only so the direct acceptance asserts execute too:
# decision p50 under budget, residual-leak invariant, and the hard
# < 5% off-overhead bar (min-of-rounds).
bench-mitigate:
	@mkdir -p $(BENCH_DIR)
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest \
		benchmarks/test_bench_mitigate.py \
		--benchmark-json=$(BENCH_DIR)/BENCH_mitigate.json -q
	$(PYTHON) benchmarks/check_regression.py $(BENCH_DIR)/BENCH_mitigate.json \
		--baseline benchmarks/BENCH_mitigate.json --tolerance 0.50

# Ingest under load: mixed read/upload traffic against the live server
# with a background analysis worker.  Runs without --benchmark-only so
# the direct acceptance assert executes too: read p50 under concurrent
# ingest must stay within 20% of the read-only baseline; checked
# against the recorded baseline (first run records it).
bench-ingest:
	@mkdir -p $(BENCH_DIR)
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest \
		benchmarks/test_bench_ingest.py \
		--benchmark-json=$(BENCH_DIR)/BENCH_ingest.json -q
	$(PYTHON) benchmarks/check_regression.py $(BENCH_DIR)/BENCH_ingest.json \
		--baseline benchmarks/BENCH_ingest.json --tolerance 0.50

# Fuzzing-harness throughput (scenario generation + oracle scenarios/sec).
bench-qa:
	@mkdir -p $(BENCH_DIR)
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest \
		benchmarks/test_bench_qa.py --benchmark-only \
		--benchmark-json=$(BENCH_DIR)/BENCH_qa.json -q
	$(PYTHON) benchmarks/check_regression.py $(BENCH_DIR)/BENCH_qa.json \
		--baseline benchmarks/BENCH_qa.json

# Differential fuzzing with fault injection.  Every seed collects one
# randomized world and requires batch == stream == serve byte-for-byte,
# under injected crashes, torn journal tails, and transport faults.
fuzz:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro fuzz \
		--seed $(FUZZ_SEED) --rounds $(FUZZ_ROUNDS) --faults

# The fixed 20-seed corpus CI runs on every push (faults on, < 2 min).
fuzz-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro fuzz --seed 0 --rounds 20 --faults

# Serve the recommender API over a demo study (collects the 3-service
# subset on first use; override RESULT= to serve your own results).
serve:
	@test -f $(RESULT)/manifest.json || \
		PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro collect \
			--services weather,grubhub,cnn --out $(RESULT)
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro serve --result $(RESULT) --port $(PORT)

# Every benchmark, including the full 50-service study fixtures.
bench-all:
	@mkdir -p $(BENCH_DIR)
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest \
		benchmarks --benchmark-only \
		--benchmark-json=$(BENCH_DIR)/BENCH_all.json -q

# Run the pipeline bench and fail on >20% mean regression against the
# recorded baseline (benchmarks/BENCH_baseline.json; first run records it).
bench-check: bench bench-scaling bench-columnar bench-campaign \
		bench-campaign-scale bench-mitigate bench-ingest
	$(PYTHON) benchmarks/check_regression.py $(BENCH_DIR)/BENCH_pipeline.json

clean:
	rm -rf $(BENCH_DIR)
	rm -f repro-fail-*.json
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
