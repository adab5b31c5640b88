package obs

import (
	"bytes"
	"sync"
	"testing"
)

// TestFamilySnapshotDeterministicUnderConcurrentRegistration pins the
// property the stream writer's per-level counters depend on: labelled
// counters (name{label=value}) resolved from many goroutines in arbitrary
// interleavings must produce exactly the same snapshot bytes as the same
// counters registered sequentially in any other order — rendering sorts by
// name, never by registration time — and scraping mid-registration must be
// safe. Run under -race in CI.
func TestFamilySnapshotDeterministicUnderConcurrentRegistration(t *testing.T) {
	const (
		workers = 8
		iters   = 200 // divisible by len(levels) and len(tenants)
	)
	levels := []string{"0", "1", "2", "3"}
	tenants := []string{"gold", "silver"}

	switches := func(s *Scope, level string) *Counter { return s.Counter("level.switches{level=" + level + "}") }
	goodput := func(s *Scope, tenant string) *Counter { return s.Counter("goodput.bytes{tenant=" + tenant + "}") }

	reg := NewRegistry()
	scope := reg.Scope("coord")
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker starts the cycle at its own offset, so first
			// registration of any given member can fall to any worker.
			for i := 0; i < iters; i++ {
				switches(scope, levels[(w+i)%len(levels)]).Inc()
				goodput(scope, tenants[(w+i)%len(tenants)]).Add(3)
				if i%50 == 0 {
					// Scrapes racing registration must see a valid
					// snapshot (checked for data races, not content:
					// mid-flight totals are unordered).
					_ = reg.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()

	// The same members built sequentially, in reverse order, with the
	// totals the concurrent run must have reached: iters/len evenly
	// distributes every worker's cycle across the members.
	want := NewRegistry()
	ws := want.Scope("coord")
	for i := len(tenants) - 1; i >= 0; i-- {
		goodput(ws, tenants[i]).Add(3 * workers * iters / int64(len(tenants)))
	}
	for i := len(levels) - 1; i >= 0; i-- {
		switches(ws, levels[i]).Add(workers * iters / int64(len(levels)))
	}

	if got, exp := reg.Snapshot(), want.Snapshot(); !bytes.Equal(got, exp) {
		t.Fatalf("concurrent registration changed the snapshot:\ngot:  %s\nwant: %s", got, exp)
	}
	if got, exp := reg.RenderText(), want.RenderText(); got != exp {
		t.Fatalf("concurrent registration changed the text rendering:\ngot:  %s\nwant: %s", got, exp)
	}
	// And the bytes themselves are pinned: labelled names are part of the
	// scrape contract, same as the main snapshot golden.
	goldenCompare(t, "family_concurrent.golden", reg.Snapshot())
}
