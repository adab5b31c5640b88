package obs

import "sync/atomic"

// Counter is a monotonically increasing counter. Inc and Add are lock-free
// and allocation-free (proven by an AllocsPerRun gate in alloc_test.go), so
// they are safe on the per-block data-plane hot path.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n. Negative deltas are a programming error but are not checked
// on the hot path; use a Gauge for values that go down.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) jsonValue() any { return c.Value() }

// Gauge is an instantaneous level: it can move both ways. All operations
// are lock-free and allocation-free.
type Gauge struct {
	v atomic.Int64
}

// Set stores the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// SetMax raises the gauge to n if n exceeds the current value.
func (g *Gauge) SetMax(n int64) {
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) jsonValue() any { return g.Value() }
