package obs

import (
	"strconv"
	"sync"
	"testing"
)

// TestConcurrentHammer drives every metric kind plus the snapshot path from
// many goroutines at once. Run under -race (the CI obs job and `make
// test-obs` do) it proves the registry is race-clean; run without it, the
// final counts prove no increments are lost.
func TestConcurrentHammer(t *testing.T) {
	const (
		workers = 16
		iters   = 2000
	)
	reg := NewRegistry()
	s := reg.Scope("hammer")
	c := s.Counter("counter")
	g := s.Gauge("gauge")
	h := s.Histogram("hist", nil)
	l := s.EventLog("events", 64)
	fam := func(w int) *Counter { return s.Counter("fam{worker=" + strconv.Itoa(w) + "}") }

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Resolving metrics concurrently must also be safe: half the
			// workers re-attach by name instead of using the shared pointer.
			mc := c
			if w%2 == 0 {
				mc = s.Counter("counter")
			}
			fc := fam(w % 4)
			for i := 0; i < iters; i++ {
				mc.Inc()
				g.Add(1)
				g.SetMax(int64(i))
				h.Observe(float64(i % 128))
				fc.Inc()
				if i%256 == 0 {
					l.Add("tick", "worker tick")
				}
			}
		}(w)
	}
	// Snapshot and quantile readers run concurrently with the writers.
	readDone := make(chan struct{})
	go func() {
		defer close(readDone)
		for i := 0; i < 200; i++ {
			_ = reg.Snapshot()
			_ = h.Quantile(0.95)
			_ = l.Events()
			_ = reg.Names()
		}
	}()
	wg.Wait()
	<-readDone

	if got := c.Value(); got != workers*iters {
		t.Fatalf("counter = %d, want %d (lost increments)", got, workers*iters)
	}
	if got := h.Count(); got != workers*iters {
		t.Fatalf("histogram count = %d, want %d", got, workers*iters)
	}
	famTotal := int64(0)
	for w := 0; w < 4; w++ {
		famTotal += fam(w).Value()
	}
	if famTotal != workers*iters {
		t.Fatalf("family total = %d, want %d", famTotal, workers*iters)
	}
	if got := g.Value(); got < int64(iters-1) {
		t.Fatalf("gauge = %d, want >= %d (SetMax floor)", got, iters-1)
	}
}

// TestConcurrentAttach races attach() on one name from many goroutines: all
// callers must end up with the same underlying counter.
func TestConcurrentAttach(t *testing.T) {
	reg := NewRegistry()
	s := reg.Scope("x")
	var wg sync.WaitGroup
	counters := make([]*Counter, 16)
	for i := range counters {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			counters[i] = s.Counter("shared")
			counters[i].Inc()
		}(i)
	}
	wg.Wait()
	for i, c := range counters {
		if c != counters[0] {
			t.Fatalf("goroutine %d attached a different counter instance", i)
		}
	}
	if got := counters[0].Value(); got != 16 {
		t.Fatalf("shared counter = %d, want 16", got)
	}
}
