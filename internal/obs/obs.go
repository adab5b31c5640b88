// Package obs is the data plane's unified observability layer: a
// dependency-free, race-safe metrics registry for the signals the paper
// argues are the only trustworthy ones in a shared-I/O cloud — the
// application's own internal counters (Section II shows every OS-provided
// metric can be skewed by an order of magnitude inside a VM).
//
// The package provides four metric kinds:
//
//   - Counter: a monotonically increasing atomic int64. Increments on the
//     stream hot path are lock-free and allocation-free.
//   - Gauge: an atomic int64 level (in-use buffers, active connections),
//     with Set/Add/SetMax.
//   - Histogram: a bounded histogram over fixed bucket boundaries with
//     lock-free Observe and p50/p95/p99 estimation from the buckets.
//   - EventLog: a bounded ring buffer of timestamped events, used for
//     controller decisions (probe/revert/backoff transitions).
//
// Metrics live in a Registry under hierarchical dotted names
// ("stream.writer.level_switches", "tunnel.dial.retries",
// "block.arena.in_use"). Components never concatenate strings on hot
// paths: they resolve their metrics once at setup time through a Scope and
// hold the returned pointers.
//
// A Registry renders a deterministic JSON snapshot through encoding/json
// (keys sorted, non-finite floats as null — see snapshot.go), publishes
// itself under expvar-compatible names, and serves the snapshot over HTTP
// (actunnel/acsend/acrecv -metrics-addr). A labelled metric is a metric
// whose name carries the label: "stream.writer.app_bytes{level=1}".
//
// # Nil safety
//
// Every constructor on *Scope accepts a nil receiver and returns a fully
// functional, unregistered metric. Instrumented components therefore never
// branch on "is observability configured": they resolve metrics
// unconditionally and the zero-configuration case costs one unreachable
// atomic per operation.
package obs

import (
	"fmt"
	"sort"
	"sync"
)

// Registry holds a flat namespace of metrics under dotted hierarchical
// names. All methods are safe for concurrent use.
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]Metric
}

// Metric is implemented by every registrable metric kind. jsonValue
// returns the metric's current value for encoding/json: an int64, a finite
// float64 or nil, or a struct or slice built from those and strings.
type Metric interface {
	jsonValue() any
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]Metric)}
}

// Scope returns a scope rooted at name (e.g. "stream"). Scopes are cheap
// handles; components pass them down and derive sub-scopes freely.
func (r *Registry) Scope(name string) *Scope {
	if r == nil {
		return nil
	}
	return &Scope{reg: r, prefix: name}
}

// Names returns the sorted list of registered metric names.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	r.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Get returns the metric registered under name, or nil.
func (r *Registry) Get(name string) Metric {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.metrics[name]
}

// attach registers m under name. Registering a name twice panics unless the
// existing metric is the same kind, in which case the existing one is
// returned so two components sharing a scope see the same counter.
func attach[M Metric](r *Registry, name string, m M) M {
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.metrics[name]; ok {
		if pm, ok := prev.(M); ok {
			return pm
		}
		panic(fmt.Sprintf("obs: metric %q re-registered with a different kind (%T vs %T)", name, prev, m))
	}
	r.metrics[name] = m
	return m
}

// Scope derives hierarchical metric names. A nil *Scope is valid: every
// constructor returns an unregistered but functional metric.
type Scope struct {
	reg    *Registry
	prefix string
}

// Name returns the scope's full prefix ("stream.writer").
func (s *Scope) Name() string {
	if s == nil {
		return ""
	}
	return s.prefix
}

// Registry returns the underlying registry (nil for a nil scope).
func (s *Scope) Registry() *Registry {
	if s == nil {
		return nil
	}
	return s.reg
}

// Scope derives a child scope: s("stream").Scope("writer") names metrics
// "stream.writer.*".
func (s *Scope) Scope(name string) *Scope {
	if s == nil {
		return nil
	}
	return &Scope{reg: s.reg, prefix: s.prefix + "." + name}
}

// Counter returns the counter registered under the scope's prefix + name,
// creating it if needed.
func (s *Scope) Counter(name string) *Counter {
	if s == nil {
		return &Counter{}
	}
	return attach(s.reg, s.prefix+"."+name, &Counter{})
}

// Gauge returns the gauge registered under the scope's prefix + name,
// creating it if needed.
func (s *Scope) Gauge(name string) *Gauge {
	if s == nil {
		return &Gauge{}
	}
	return attach(s.reg, s.prefix+"."+name, &Gauge{})
}

// Histogram returns the histogram registered under the scope's prefix +
// name, creating it with the given ascending bucket upper bounds. Nil
// bounds mean DefaultBuckets.
func (s *Scope) Histogram(name string, bounds []float64) *Histogram {
	if s == nil {
		return newHistogram(bounds)
	}
	return attach(s.reg, s.prefix+"."+name, newHistogram(bounds))
}

// EventLog returns the event log registered under the scope's prefix +
// name, creating it with the given capacity (<=0 means DefaultEventCap).
func (s *Scope) EventLog(name string, capacity int) *EventLog {
	if s == nil {
		return NewEventLog(capacity)
	}
	return attach(s.reg, s.prefix+"."+name, NewEventLog(capacity))
}
