// Package blocktest wires the block arena's leak tracker into tests: a
// suite calls Track(t) as its first line and the test fails if any buffer
// acquired during the test is still unreleased when the test (including
// its cleanups) finishes. It mirrors faultio/leakcheck for goroutines.
package blocktest

import (
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"adaptio/internal/block"
)

// Track enables buffer leak tracking for the duration of the test.
// Register it before creating the resources under test: t.Cleanup runs
// last-in-first-out, so the leak check executes after the test's own
// cleanups have torn everything down. Shutdown is asynchronous in the
// pipelined paths, so the check polls with a grace window before failing.
func Track(t testing.TB) {
	t.Helper()
	snap, stop := block.StartTracking()
	t.Cleanup(func() {
		defer stop()
		deadline := time.Now().Add(2 * time.Second)
		var leaked []string
		for {
			leaked = block.LeakedSince(snap)
			if len(leaked) == 0 {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Errorf("blocktest: %d buffer(s) leaked; acquired at:\n%s",
			len(leaked), strings.Join(leaked, "\n"))
	})
}

// AllocBudget runs op 32 times to warm up (deeper than any pipeline's frame
// ring, so pools hold their working set), then n more times, and fails the
// test if those n runs averaged more than maxAllocs heap allocations or
// maxBytes allocated bytes each. It reads the process-wide counters -benchmem
// reads, not testing.AllocsPerRun, which pins GOMAXPROCS to 1 and would
// measure the worker-pool paths as inline. The collector is paused meanwhile:
// a GC cycle empties every sync.Pool, and whether one lands inside the n runs
// depends on the test binary's history, not on op. Counts then repeat
// exactly. Bytes carry one-sided noise — sync.Pool caches per P, and a
// goroutine landing on a P with nothing cached allocates a whole pooled
// buffer — so a batch over budget is measured again, up to three times: the
// caches only fill, and a real regression is over budget in every batch.
// Skipped under the race detector, which allocates on its own account.
func AllocBudget(t *testing.T, n int, maxAllocs, maxBytes uint64, op func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < 32; i++ {
		op()
	}
	var allocs, bytes uint64
	for batch := 0; batch < 3; batch++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			op()
		}
		runtime.ReadMemStats(&after)
		allocs = (after.Mallocs - before.Mallocs) / uint64(n)
		bytes = (after.TotalAlloc - before.TotalAlloc) / uint64(n)
		t.Logf("%d allocs/op (budget %d), %d B/op (budget %d) over %d ops", allocs, maxAllocs, bytes, maxBytes, n)
		if allocs <= maxAllocs && bytes <= maxBytes {
			return
		}
	}
	t.Errorf("%d allocs/op and %d B/op, budget is %d and %d", allocs, bytes, maxAllocs, maxBytes)
}

// BenchAllocs is the benchmark side of AllocBudget: op timed b.N times with
// the -benchmem columns on, opBytes application bytes to the op.
func BenchAllocs(b *testing.B, opBytes int, op func()) {
	b.SetBytes(int64(opBytes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}
