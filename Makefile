# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test test-race test-short test-shape test-obs test-coord test-scenario test-decider test-kernels bench repro claims soak fuzz fuzz-smoke fuzz-nightly chaos cover clean

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
	$(GO) test -run 'Golden|TestJobStatsTotals' -count=1 ./internal/obs/ ./internal/nephele/
	$(GO) test -run 'TestDecisionLogShowsBackoffAfterRevert|TestWriterObsCounters' -count=1 ./internal/stream/

# Fleet-coordinator gates under -race: coord's contention and property
# suites, the solo decider suite, the tunnel's policy seam and the fleet
# harness (docs/coordination.md).
test-coord:
	$(GO) test -race -count=1 ./internal/coord/
	$(GO) test -race -run 'TestDecider' -count=1 ./internal/core/
	$(GO) test -race -run 'TestCoordRegistersAndDetachesStreams|TestCoordStreamRoundTrip|TestPolicyCalledAndDetachedOncePerServedConn|TestQueuedConn' -count=1 ./internal/tunnel/
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

# Decider policy gates (docs/deciders.md): the per-decision golden traces of
# every selectable policy (never regenerated by a refactor), the core suite
# under -race (convergence, determinism, the FuzzDecider seeds), the
# per-policy Table II matrix with its bound, never-probe sentinel row and
# BENCH_decider.json golden, the six-builtin scenario bound, and a 32-stream
# smoke of the lossy builtin through expdriver with -decider bandit.
test-decider:
	$(GO) test -run 'TestDeciderGoldenTrace' -count=1 -v ./internal/core/
	$(GO) test -race -count=1 ./internal/core/
	$(GO) test -run 'TestDeciderMatrix|TestSentinelFailsMatrixBound' -count=1 -v ./internal/experiments/
	$(GO) test -run 'TestBuiltinsDeciderBound|TestSentinelFailsScenarioBound|TestScenarioDeciderField' -short -count=1 ./internal/scenario/
	$(GO) run ./cmd/expdriver -scenario lossy -decider bandit -max-wall 2m

# Kernel-tier gates (docs/performance.md, "Kernel tier"): the unsafe-vs-spec
# compress differential suites and golden digests, the hash-chain parse-path
# suite (TestCompressHC*), the serial-vs-parallel wire-determinism property,
# the probe skip/ledger suite, the committed wire golden (testdata/wire.golden:
# every writer mode must reproduce it, every reader mode decode it) and the
# write-error policy — under -race on the default (unsafe) build, then with
# the portable kernels forced via -tags purego; both builds must produce the
# same bytes. The stream lines run at GOMAXPROCS 1, 2 and 4: the default
# writer forks the blocks of a multi-block Write across cores.
test-kernels:
	$(GO) test -race -run 'Differential|TestGoldenDigests|TestParentEncoderBlockStillDecodes|TestCompressHC' -count=1 ./internal/compress/lzfast/
	$(GO) test -race -cpu 1,2,4 -run 'TestWireDeterminism|TestForkJoinMatrix|TestProbe|TestWireGolden|TestNoWriteAfterFailedFrame|TestForkedWriteErrorIsSynchronous' -count=1 ./internal/stream/
	$(GO) test -tags purego -run 'Differential|TestGoldenDigests|TestParentEncoderBlockStillDecodes|TestCompressHC' -count=1 ./internal/compress/lzfast/
	$(GO) test -tags purego -cpu 1,2,4 -run 'TestWireDeterminism|TestForkJoinMatrix|TestProbe|TestWireGolden|TestNoWriteAfterFailedFrame|TestForkedWriteErrorIsSynchronous' -count=1 ./internal/stream/

# Every paper table/figure, ablation and calibration once, rendered, at a
# fifth of the paper's volume (shapes hold; `make repro` is the full 50 GB).
bench:
	$(GO) run ./cmd/expdriver -gb 10

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
	$(GO) test -fuzz=FuzzDecider -fuzztime=30s ./internal/core/
	$(GO) test -fuzz=FuzzParseProcStat -fuzztime=30s ./internal/metrics/
	$(GO) test -fuzz=FuzzSnapshotIsJSON -fuzztime=30s ./internal/obs/
	$(GO) test -fuzz=FuzzGenerateMatchesReference -fuzztime=30s ./internal/corpus/

# Short fuzz sessions of the corrupt-input, kernel- and corpus-differential,
# hash-chain round-trip, hostile-observation and metrics-encoding targets;
# what CI runs.
fuzz-smoke:
	$(GO) test -fuzz=FuzzFastRoundTrip -fuzztime=10s ./internal/compress/lzfast/
	$(GO) test -fuzz=FuzzCompressFastUnsafe -fuzztime=10s ./internal/compress/lzfast/
	$(GO) test -fuzz=FuzzReaderCorruptStream -fuzztime=10s ./internal/stream/
	$(GO) test -fuzz=FuzzTunnelFrame -fuzztime=10s ./internal/tunnel/
	$(GO) test -fuzz=FuzzScenarioParse -fuzztime=10s ./internal/scenario/
	$(GO) test -fuzz=FuzzDecider -fuzztime=10s ./internal/core/
	$(GO) test -fuzz=FuzzSnapshotIsJSON -fuzztime=10s ./internal/obs/
	$(GO) test -fuzz=FuzzGenerateMatchesReference -fuzztime=10s ./internal/corpus/

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
	$(GO) test -fuzz=FuzzDecider -fuzztime=5m ./internal/core/
	$(GO) test -fuzz=FuzzParseProcStat -fuzztime=5m ./internal/metrics/
	$(GO) test -fuzz=FuzzSnapshotIsJSON -fuzztime=5m ./internal/obs/
	$(GO) test -fuzz=FuzzGenerateMatchesReference -fuzztime=5m ./internal/corpus/

# The seeded fault-injection scenarios (docs/robustness.md) under -race.
chaos:
	$(GO) test -race -run 'TestChaos' -count=1 ./internal/faultio/

cover:
	$(GO) test -coverprofile=cover.out ./internal/...
	$(GO) tool cover -func=cover.out | tail -1

clean:
	rm -f cover.out test_output.txt
