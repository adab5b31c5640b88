# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test test-race test-short test-shape test-obs test-coord test-scenario test-decider test-kernels bench bench-alloc bench-compare bench-throughput bench-throughput-compare bench-relay-gate bench-decider-gate alloc-gate repro claims soak fuzz fuzz-smoke fuzz-nightly chaos cover clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

test-short:
	$(GO) test -short ./...

# Shape-fidelity regression suite: the paper's qualitative claims encoded as
# deterministic seeded assertions, including the revert-disabled sentinel.
test-shape:
	$(GO) test -run 'TestShape' -count=1 -v ./internal/experiments/

# The observability layer's gates: unit semantics, race hammer with exact
# counts, zero-allocation hot path, and the snapshot/render golden files.
test-obs:
	$(GO) test -race -count=1 ./internal/obs/
	$(GO) test -run 'TestHotPathAllocationFree' -count=1 ./internal/obs/
	$(GO) test -run 'Golden|TestStatsDerivedFromMetrics' -count=1 ./internal/obs/ ./internal/nephele/
	$(GO) test -run 'TestDecisionLogShowsBackoffAfterRevert|TestWriterObsCounters' -count=1 ./internal/stream/

# Fleet-coordinator gates: the contention-regression suite (coordinated vs
# solo on a shared simulated NIC, cheat sentinel included), the solo
# convergence property suite it falls back to, and the tunnel wiring tests
# — all under the race detector (docs/coordination.md).
test-coord:
	$(GO) test -race -count=1 ./internal/coord/
	$(GO) test -race -run 'TestDecider' -count=1 ./internal/core/
	$(GO) test -race -run 'TestCoord|TestQueuedConn' -count=1 ./internal/tunnel/
	$(GO) test -race -run 'TestRunFleet|TestWaterFill' -count=1 ./internal/cloudsim/

# Scenario DSL regression surface (docs/scenarios.md): parser strictness and
# fuzz seeds, artifact-determinism goldens, the trace record/replay round
# trip, the flapping-NIC dwell suite, and the built-in claim/rig shape
# matrix — the rigs must break exactly the claims they target.
test-scenario:
	$(GO) test -race -count=1 ./internal/scenario/ ./internal/trace/
	$(GO) test -race -run 'TestFlap' -count=1 ./internal/coord/
	$(GO) test -run 'TestScenario' -count=1 -v ./internal/experiments/
	$(GO) run ./cmd/expdriver -scenario flaps -max-wall 2m

# Decider policy gates (docs/deciders.md): the core policy suites under
# -race (golden AlgorithmOne trace, all-policy convergence + determinism),
# the per-policy Table II matrix with its two-axis bound and CheatStick
# sentinel, the six-builtin scenario bound, and a 32-stream end-to-end
# smoke driving the lossy builtin through expdriver with -decider bandit.
test-decider:
	$(GO) test -race -count=1 ./internal/core/
	$(GO) test -run 'TestDeciderMatrix|TestCheatStickFailsMatrixBound' -count=1 -v ./internal/experiments/
	$(GO) test -run 'TestBuiltinsDeciderBound|TestCheatStickFailsScenarioBound|TestScenarioDeciderField' -short -count=1 ./internal/scenario/
	$(GO) run ./cmd/expdriver -scenario lossy -decider bandit -max-wall 2m

# Kernel-tier gates (docs/performance.md, "Kernel tier"): the unsafe-vs-spec
# compress differential suites and golden digests, the serial-vs-parallel
# wire-determinism property, the probe skip/ledger suite, the committed wire
# golden (testdata/wire.golden: every writer mode must reproduce it, every
# reader mode decode it) and the write-error policy — first under the race
# detector on the default (unsafe) build, then again with the portable
# kernels forced via -tags purego. Both builds must produce byte-identical
# compressed output, pinned by the same golden file.
test-kernels:
	$(GO) test -race -run 'Differential|TestGoldenDigests' -count=1 ./internal/compress/lzfast/
	$(GO) test -race -run 'TestWireDeterminism|TestProbe|TestWireGolden|TestNoWriteAfterFailedFrame' -count=1 ./internal/stream/
	$(GO) test -tags purego -run 'Differential|TestGoldenDigests' -count=1 ./internal/compress/lzfast/
	$(GO) test -tags purego -run 'TestWireDeterminism|TestProbe|TestWireGolden|TestNoWriteAfterFailedFrame' -count=1 ./internal/stream/

# One iteration of every paper table/figure benchmark with rendered output.
bench:
	$(GO) test -bench . -benchmem -benchtime=1x -v .

# Data-plane allocation benchmarks (docs/performance.md). Compare against
# the committed baseline in BENCH_alloc.json.
bench-alloc:
	$(GO) test -run '^$$' -bench '^BenchmarkAlloc' -benchmem -benchtime=300x ./internal/...

# Perf-regression gate: rerun the allocation benchmarks and fail if any
# B/op or allocs/op figure regressed >15% against the committed baseline.
# Self-contained (cmd/benchdiff); no benchstat install needed.
bench-compare:
	$(GO) test -run '^$$' -bench '^BenchmarkAlloc' -benchmem -benchtime=300x ./internal/... | tee bench_output.txt
	$(GO) run ./cmd/benchdiff -baseline BENCH_alloc.json bench_output.txt

# Data-plane throughput benchmarks (docs/performance.md): codec MB/s per
# corpus kind, stream writer/reader end to end, tunnel relay. Compare
# against the committed baseline in BENCH_throughput.json.
bench-throughput:
	$(GO) test -run '^$$' -bench '^BenchmarkThroughput' -benchtime=1s .

# Throughput-regression gate: rerun the throughput benchmarks and fail if
# any MB/s figure collapsed below the committed baseline's wide tolerance
# (-mode throughput defaults to -regress 0.40; MB/s baselines are
# machine-dependent, so the gate catches lost fast paths, not CPU drift).
bench-throughput-compare:
	$(GO) test -run '^$$' -bench '^BenchmarkThroughput' -benchtime=1s . | tee bench_throughput_output.txt
	$(GO) run ./cmd/benchdiff -mode throughput -baseline BENCH_throughput.json bench_throughput_output.txt

# Zero-copy relay gate (docs/performance.md, "Zero-copy relay"): just the
# relay benchmarks (NO-level and unframed passthrough) against their
# BENCH_throughput.json floors. -allow-missing: this run skips the rest of
# the throughput suite.
bench-relay-gate:
	$(GO) test -run '^$$' -bench '^BenchmarkThroughputRelay' -benchtime=1s -count=2 . | tee bench_relay_output.txt
	$(GO) run ./cmd/benchdiff -mode throughput -baseline BENCH_throughput.json -allow-missing bench_relay_output.txt

# Decider-regression gate (docs/deciders.md): regenerate the deterministic
# per-policy matrix artifact and fail if any policy's wasted-probe count
# grew >15% or a cell's converged MB/s fell >15% against the committed
# BENCH_decider.json baseline.
bench-decider-gate:
	$(GO) run ./cmd/expdriver -decider-matrix -json-out bench_decider_output.json
	$(GO) run ./cmd/benchdiff -mode decider -baseline BENCH_decider.json bench_decider_output.json

# The AllocsPerRun regression gates (serial round trip, presized decodes).
alloc-gate:
	$(GO) test -run 'AllocGate|Presized|ReleasesAllBuffers' -count=1 -v \
		./internal/stream/ ./internal/compress/lzfast/ ./internal/compress/lzheavy/

# Full reproduction at the paper's 50 GB volume.
repro:
	$(GO) run ./cmd/expdriver

# PASS/FAIL checklist of the paper's quantitative claims.
claims:
	$(GO) run ./cmd/expdriver -claims

# Connection-scale soak (docs/scaling.md): bounded pool under heavy churn,
# leak-checked drain. The nightly workflow runs a longer variant.
soak:
	$(GO) run ./cmd/acload -conns 256 -dur 15s -max-conns 128 -accept-queue 128 -q

fuzz:
	$(GO) test -fuzz=FuzzFastRoundTrip -fuzztime=30s ./internal/compress/lzfast/
	$(GO) test -fuzz=FuzzDecompressFast -fuzztime=30s ./internal/compress/lzfast/
	$(GO) test -fuzz=FuzzCompressFastUnsafe -fuzztime=30s ./internal/compress/lzfast/
	$(GO) test -fuzz=FuzzRoundTrip -fuzztime=30s ./internal/compress/lzheavy/
	$(GO) test -fuzz=FuzzWriterChunking -fuzztime=30s ./internal/stream/
	$(GO) test -fuzz=FuzzReaderCorruptStream -fuzztime=30s ./internal/stream/
	$(GO) test -fuzz=FuzzTunnelFrame -fuzztime=30s ./internal/tunnel/
	$(GO) test -fuzz=FuzzScenarioParse -fuzztime=30s ./internal/scenario/

# Short fuzz sessions of the corrupt-input and kernel-differential targets;
# what CI runs.
fuzz-smoke:
	$(GO) test -fuzz=FuzzCompressFastUnsafe -fuzztime=10s ./internal/compress/lzfast/
	$(GO) test -fuzz=FuzzReaderCorruptStream -fuzztime=10s ./internal/stream/
	$(GO) test -fuzz=FuzzTunnelFrame -fuzztime=10s ./internal/tunnel/
	$(GO) test -fuzz=FuzzScenarioParse -fuzztime=10s ./internal/scenario/

# Extended fuzz sessions of every target; what the nightly workflow runs.
fuzz-nightly:
	$(GO) test -fuzz=FuzzFastRoundTrip -fuzztime=5m ./internal/compress/lzfast/
	$(GO) test -fuzz=FuzzDecompressFast -fuzztime=5m ./internal/compress/lzfast/
	$(GO) test -fuzz=FuzzCompressFastUnsafe -fuzztime=5m ./internal/compress/lzfast/
	$(GO) test -fuzz=FuzzRoundTrip -fuzztime=5m ./internal/compress/lzheavy/
	$(GO) test -fuzz=FuzzWriterChunking -fuzztime=5m ./internal/stream/
	$(GO) test -fuzz=FuzzReaderCorruptStream -fuzztime=5m ./internal/stream/
	$(GO) test -fuzz=FuzzTunnelFrame -fuzztime=5m ./internal/tunnel/
	$(GO) test -fuzz=FuzzScenarioParse -fuzztime=5m ./internal/scenario/

# The seeded fault-injection scenarios (docs/robustness.md) under -race.
chaos:
	$(GO) test -race -run 'TestChaos' -count=1 ./internal/faultio/

cover:
	$(GO) test -coverprofile=cover.out ./internal/...
	$(GO) tool cover -func=cover.out | tail -1

clean:
	rm -f cover.out test_output.txt bench_output.txt bench_throughput_output.txt bench_decider_output.json
