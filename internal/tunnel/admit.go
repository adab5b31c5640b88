package tunnel

import (
	"net"
	"sync/atomic"
	"time"
)

// admitDecision is the outcome of the admission controller for one accepted
// TCP connection.
type admitDecision int

const (
	// admitNow: a relay slot was free; serve immediately.
	admitNow admitDecision = iota
	// admitQueued: all MaxConns slots are busy but the accept queue has
	// room; the connection holds a (bounded) parked goroutine until a slot
	// frees, shutdown begins, or the endpoint drains.
	admitQueued
	// admitShed: slots and queue are both full (or the endpoint is
	// draining); the connection is closed without service.
	admitShed
)

// admitter bounds the number of concurrently served connections. It is the
// load-shedding half of the tunnel's overload story (docs/scaling.md):
//
//   - up to MaxConns connections hold a relay slot (semaphore token);
//   - up to AcceptQueue more park waiting for a token;
//   - everything beyond that is shed: closed immediately, counted, and
//     never given a relay goroutine.
//
// With MaxConns == 0 the admitter is a no-op and every connection is served.
// Otherwise goroutine count is bounded by O(MaxConns + AcceptQueue), never by
// the client arrival rate.
type admitter struct {
	sem      chan struct{} // capacity MaxConns; nil = unlimited
	queueCap int64
	queued   atomic.Int64
	draining chan struct{} // closed by Endpoint.Close before the grace wait
	m        *tunnelMetrics
}

func newAdmitter(cfg Config, m *tunnelMetrics) *admitter {
	a := &admitter{
		queueCap: int64(cfg.AcceptQueue),
		draining: make(chan struct{}),
		m:        m,
	}
	if cfg.MaxConns > 0 {
		a.sem = make(chan struct{}, cfg.MaxConns)
	}
	return a
}

// tryAdmit classifies a fresh connection. It never blocks: the accept loop
// must keep draining the kernel backlog even under overload, so queued
// waiting happens on the connection's own (bounded) goroutine via wait.
func (a *admitter) tryAdmit() admitDecision {
	select {
	case <-a.draining:
		return admitShed
	default:
	}
	if a.sem == nil {
		return admitNow
	}
	select {
	case a.sem <- struct{}{}:
		return admitNow
	default:
	}
	// Slots are full: park in the queue if it has room. The counter is
	// optimistic — undo on overflow — so two racing accepts cannot both
	// squeeze into the last queue seat.
	if a.queued.Add(1) > a.queueCap {
		a.queued.Add(-1)
		return admitShed
	}
	a.m.connsQueued.Add(1)
	return admitQueued
}

// wait parks a queued connection until a relay slot frees. It returns false
// (and the caller must shed) when shutdown or drain begins first. done is
// the endpoint's run-context cancellation channel.
func (a *admitter) wait(done <-chan struct{}) bool {
	start := time.Now()
	defer func() {
		a.queued.Add(-1)
		a.m.connsQueued.Add(-1)
		a.m.queueWaitMs.Observe(float64(time.Since(start)) / float64(time.Millisecond))
	}()
	select {
	case a.sem <- struct{}{}:
		return true
	case <-a.draining:
		return false
	case <-done:
		return false
	}
}

// release returns a relay slot. Only connections that actually acquired a
// token (admitNow, or admitQueued + successful wait) may call it.
func (a *admitter) release() {
	if a.sem != nil {
		<-a.sem
	}
}

// drain flips the admitter into shedding mode: every connection still queued
// unparks and is shed, and every future accept sheds immediately. Safe to
// call once (Endpoint.Close guards with sync.Once).
func (a *admitter) drain() {
	close(a.draining)
}

// shed closes a connection the admitter refused and counts it.
func (a *admitter) shed(conn net.Conn) {
	a.m.connsShed.Inc()
	conn.Close()
}
