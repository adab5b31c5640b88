package obs

import (
	"math"
	"sync/atomic"
)

// DefaultBucketCount sizes DefaultBuckets and ExpBuckets' usual spans.
const DefaultBucketCount = 24

// DefaultBuckets covers [1, ~8.4e6) in powers of two — a reasonable span
// for millisecond durations, block counts, and MB-scale rates.
var DefaultBuckets = ExpBuckets(1, 2, DefaultBucketCount)

// ExpBuckets returns n ascending bucket upper bounds starting at start and
// growing by factor: {start, start*factor, ...}.
func ExpBuckets(start, factor float64, n int) []float64 {
	if n < 1 || start <= 0 || factor <= 1 {
		panic("obs: invalid exponential bucket spec")
	}
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// Histogram is a bounded histogram over fixed ascending bucket upper
// bounds. Observe is lock-free and allocation-free; quantiles are estimated
// from the bucket counts by linear interpolation inside the bucket that
// crosses the requested rank. Observations above the last bound land in an
// overflow bucket whose quantile estimate saturates at the last bound.
type Histogram struct {
	bounds []float64       // ascending upper bounds, immutable after creation
	counts []atomic.Uint64 // len(bounds)+1; last is overflow
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefaultBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds not strictly ascending")
		}
	}
	b := append([]float64(nil), bounds...)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v; bucket len(bounds) is
	// overflow. Inlined (no sort.SearchFloat64s) to keep the hot path
	// free of interface calls.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Mean returns Sum/Count, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Quantile estimates the q-quantile (0 <= q <= 1) from the bucket counts.
// With no observations it returns 0.
func (h *Histogram) Quantile(q float64) float64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Snapshot the counts; a concurrent Observe skews the estimate by at
	// most its own weight, which is fine for monitoring.
	total := int64(0)
	snap := make([]uint64, len(h.counts))
	for i := range h.counts {
		snap[i] = h.counts[i].Load()
		total += int64(snap[i])
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	cum := 0.0
	for i, c := range snap {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank <= next || i == len(snap)-1 {
			if i >= len(h.bounds) {
				return h.bounds[len(h.bounds)-1] // overflow saturates
			}
			lower := 0.0
			if i > 0 {
				lower = h.bounds[i-1]
			}
			upper := h.bounds[i]
			frac := (rank - cum) / float64(c)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lower + (upper-lower)*frac
		}
		cum = next
	}
	return h.bounds[len(h.bounds)-1]
}

func (h *Histogram) jsonValue() any {
	return struct {
		Count int64 `json:"count"`
		Sum   any   `json:"sum"`
		Mean  any   `json:"mean"`
		P50   any   `json:"p50"`
		P95   any   `json:"p95"`
		P99   any   `json:"p99"`
	}{h.Count(), finite(h.Sum()), finite(h.Mean()),
		finite(h.Quantile(0.50)), finite(h.Quantile(0.95)), finite(h.Quantile(0.99))}
}
