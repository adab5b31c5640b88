// Package loadgen is a seeded, deterministic connection-level load
// generator for the tunnel's overload and soak experiments (docs/scaling.md,
// cmd/acload). It models the client population the paper's evaluation only
// hints at: instead of a handful of long co-located streams (Table II), it
// ramps N concurrent clients that churn through open → send → echo → close
// cycles with configurable payload-size and think-time distributions over
// the mixed-compressibility corpus of Section IV-A.
//
// Determinism: given (Seed, Conns), every worker's operation plan — the
// sequence of payload kinds, sizes and think times — is fixed (see Plan).
// Wall-clock timings and interleavings of course vary; the offered load does
// not, which is what makes soak runs comparable across commits.
//
// The generator reports client-observed outcomes (completed/shed/failed
// cycles, echo throughput, connection-cycle latency percentiles) plus
// process peaks (goroutines, heap) so a soak run needs no external tooling:
// one Report plus the tunnel's own obs snapshot is the whole experiment.
package loadgen

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"adaptio/internal/corpus"
	"adaptio/internal/obs"
	"adaptio/internal/trace"
	"adaptio/internal/xrand"
)

// Config parameterizes a load run. Addr is required; every other field has
// a usable zero-value default.
type Config struct {
	// Addr is the address clients dial (normally a tunnel entry).
	Addr string
	// Conns is the number of concurrent client workers (default 1).
	Conns int
	// Ops bounds the total number of connection cycles across all workers
	// (0 = unbounded; stop on Duration/ctx instead).
	Ops int64
	// Duration bounds the run's wall clock (0 = unbounded; stop on
	// Ops/ctx instead). At least one of Ops, Duration, or a cancellable
	// ctx must bound the run.
	Duration time.Duration
	// Seed fixes every worker's operation plan.
	Seed uint64
	// Mix is the payload-kind cycle (default: all three paper classes).
	Mix []corpus.Kind
	// MinPayload/MaxPayload bound the per-cycle payload size; sizes are
	// drawn log-uniformly so small and large transfers both occur
	// (defaults 4 KiB / 64 KiB).
	MinPayload, MaxPayload int
	// MinThink/MaxThink bound the uniform think-time pause between a
	// worker's cycles (defaults 0/0 = no pause: maximum churn).
	MinThink, MaxThink time.Duration
	// Verify checks echoed bytes against the sent payload (requires the
	// target to be an echo service end-to-end).
	Verify bool
	// Obs, if non-nil, registers the generator's client-side metrics
	// (cycle counters, latency histogram) under this scope
	// (conventionally "loadgen").
	Obs *obs.Scope
	// Recorder, if non-nil, receives every completed cycle's payload
	// bytes attributed to the decision window it finished in, producing a
	// replayable workload trace (cmd/acload -trace-out feeds it to
	// internal/scenario's trace replay).
	Recorder *trace.Recorder
	// Logf, if non-nil, receives progress and error lines.
	Logf func(format string, args ...any)
}

func (c *Config) withDefaults() Config {
	cfg := *c
	if cfg.Conns <= 0 {
		cfg.Conns = 1
	}
	if len(cfg.Mix) == 0 {
		cfg.Mix = corpus.Kinds()
	}
	if cfg.MinPayload <= 0 {
		cfg.MinPayload = 4 << 10
	}
	if cfg.MaxPayload < cfg.MinPayload {
		cfg.MaxPayload = cfg.MinPayload
	}
	if cfg.MaxThink < cfg.MinThink {
		cfg.MaxThink = cfg.MinThink
	}
	return cfg
}

// Report is the outcome of one load run.
type Report struct {
	Conns   int
	Elapsed time.Duration

	// Cycle outcomes. Dialed = Completed + Shed + Failed.
	Dialed    int64 // cycles that reached a TCP connection
	Completed int64 // full echo received (and verified, when enabled)
	Shed      int64 // connection closed before any echo byte: load-shedding observed
	Failed    int64 // broken mid-transfer or corrupted echo
	DialErrs  int64 // dial attempts that never produced a connection

	BytesSent   int64
	BytesEchoed int64

	// Connection-cycle latency (dial through last echo byte), client side.
	LatencyMsP50, LatencyMsP95, LatencyMsP99, LatencyMsMean, LatencyMsMax float64

	// Process peaks sampled during the run (whole process: includes the
	// generator's own workers and any in-process tunnel endpoints).
	PeakGoroutines int
	PeakHeapBytes  uint64
}

// ThroughputMBps is the echoed application-byte rate over the run.
func (r Report) ThroughputMBps() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.BytesEchoed) / 1e6 / r.Elapsed.Seconds()
}

// String renders the report as a human-readable block.
func (r Report) String() string {
	return fmt.Sprintf(
		"loadgen: %d workers, %v elapsed\n"+
			"  cycles: dialed=%d completed=%d shed=%d failed=%d dial_errs=%d\n"+
			"  bytes:  sent=%d echoed=%d (%.1f MB/s echo throughput)\n"+
			"  cycle latency ms: p50=%.2f p95=%.2f p99=%.2f mean=%.2f max=%.2f\n"+
			"  process peaks: goroutines=%d heap=%d B",
		r.Conns, r.Elapsed.Round(time.Millisecond),
		r.Dialed, r.Completed, r.Shed, r.Failed, r.DialErrs,
		r.BytesSent, r.BytesEchoed, r.ThroughputMBps(),
		r.LatencyMsP50, r.LatencyMsP95, r.LatencyMsP99, r.LatencyMsMean, r.LatencyMsMax,
		r.PeakGoroutines, r.PeakHeapBytes)
}

// Plan is one worker's deterministic operation schedule: a seeded stream of
// (kind, size, think) tuples. Equal (seed, worker) yield equal plans.
type Plan struct {
	rng *xrand.RNG
	cfg Config
}

// NewPlan returns worker w's plan under cfg.
func NewPlan(cfg Config, w int) *Plan {
	c := cfg.withDefaults()
	// Distinct odd stride decorrelates workers; the xor keeps worker 0
	// distinct from the raw seed used elsewhere.
	return &Plan{rng: xrand.New(c.Seed ^ 0xac10ad*uint64(w+1) ^ 0x5eed), cfg: c}
}

// Next returns the worker's next operation.
func (p *Plan) Next() (kind corpus.Kind, size int, think time.Duration) {
	kind = p.cfg.Mix[p.rng.Intn(len(p.cfg.Mix))]
	size = p.cfg.MinPayload
	if p.cfg.MaxPayload > p.cfg.MinPayload {
		// Log-uniform: transfers span the configured range in orders of
		// magnitude, not just linearly.
		lo, hi := math.Log(float64(p.cfg.MinPayload)), math.Log(float64(p.cfg.MaxPayload))
		size = int(math.Exp(lo + p.rng.Float64()*(hi-lo)))
		if size > p.cfg.MaxPayload {
			size = p.cfg.MaxPayload
		}
		if size < p.cfg.MinPayload {
			size = p.cfg.MinPayload
		}
	}
	if p.cfg.MaxThink > 0 {
		think = p.cfg.MinThink + time.Duration(p.rng.Float64()*float64(p.cfg.MaxThink-p.cfg.MinThink))
	}
	return kind, size, think
}

// dialTimeout bounds each dial attempt, opTimeout one full cycle: dial,
// send, echo.
const (
	dialTimeout = 5 * time.Second
	opTimeout   = 30 * time.Second
)

// latencyBuckets spans 0.25 ms .. ~34 s exponentially.
var latencyBuckets = obs.ExpBuckets(0.25, 2, 18)

// metrics are the generator's client-side instruments; nil-safe via obs.
type metrics struct {
	dialed    *obs.Counter
	completed *obs.Counter
	shed      *obs.Counter
	failed    *obs.Counter
	dialErrs  *obs.Counter
	sent      *obs.Counter
	echoed    *obs.Counter
	latency   *obs.Histogram
	// maxLatency is the slowest completed cycle in nanoseconds, kept
	// beside the histogram, whose top bucket bound reads up to 2x high.
	maxLatency atomic.Int64
}

func newMetrics(scope *obs.Scope) *metrics {
	cycles := scope.Scope("cycles")
	return &metrics{
		dialed:    cycles.Counter("dialed"),
		completed: cycles.Counter("completed"),
		shed:      cycles.Counter("shed"),
		failed:    cycles.Counter("failed"),
		dialErrs:  cycles.Counter("dial_errors"),
		sent:      scope.Counter("bytes_sent"),
		echoed:    scope.Counter("bytes_echoed"),
		latency:   scope.Histogram("cycle_latency_ms", latencyBuckets),
	}
}

// Run executes the configured load against cfg.Addr and blocks until every
// worker has finished. The context cancels the run early; Duration and Ops
// bound it otherwise.
func Run(ctx context.Context, cfg Config) (Report, error) {
	c := cfg.withDefaults()
	if c.Addr == "" {
		return Report{}, errors.New("loadgen: Config.Addr is required")
	}
	if c.Duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.Duration)
		defer cancel()
	}

	m := newMetrics(c.Obs)

	// Shared payload corpus: one MaxPayload-sized buffer per kind; cycles
	// send deterministic prefixes of it. Workers never mutate these.
	payloads := make(map[corpus.Kind][]byte, len(c.Mix))
	for i, k := range c.Mix {
		if _, ok := payloads[k]; !ok {
			payloads[k] = corpus.Generate(k, c.MaxPayload, c.Seed+uint64(i))
		}
	}

	var opsLeft atomic.Int64
	opsLeft.Store(c.Ops)
	takeOp := func() bool {
		if c.Ops <= 0 {
			return true
		}
		return opsLeft.Add(-1) >= 0
	}

	// Peak sampler: goroutine count every tick, heap a little less often
	// (ReadMemStats is comparatively expensive).
	peaks := struct {
		sync.Mutex
		goroutines int
		heap       uint64
	}{}
	samplerCtx, stopSampler := context.WithCancel(context.Background())
	var samplerDone sync.WaitGroup
	samplerDone.Add(1)
	go func() {
		defer samplerDone.Done()
		var ms runtime.MemStats
		for i := 0; ; i++ {
			select {
			case <-samplerCtx.Done():
				return
			case <-time.After(10 * time.Millisecond):
			}
			g := runtime.NumGoroutine()
			peaks.Lock()
			if g > peaks.goroutines {
				peaks.goroutines = g
			}
			peaks.Unlock()
			if i%10 == 0 {
				runtime.ReadMemStats(&ms)
				peaks.Lock()
				if ms.HeapAlloc > peaks.heap {
					peaks.heap = ms.HeapAlloc
				}
				peaks.Unlock()
			}
		}
	}()

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < c.Conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			plan := NewPlan(c, w)
			for ctx.Err() == nil && takeOp() {
				kind, size, think := plan.Next()
				cycle(ctx, c, m, payloads[kind][:size], start)
				if think > 0 {
					select {
					case <-ctx.Done():
					case <-time.After(think):
					}
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	stopSampler()
	samplerDone.Wait()

	lat := m.latency
	peaks.Lock()
	defer peaks.Unlock()
	return Report{
		Conns:          c.Conns,
		Elapsed:        elapsed,
		Dialed:         m.dialed.Value(),
		Completed:      m.completed.Value(),
		Shed:           m.shed.Value(),
		Failed:         m.failed.Value(),
		DialErrs:       m.dialErrs.Value(),
		BytesSent:      m.sent.Value(),
		BytesEchoed:    m.echoed.Value(),
		LatencyMsP50:   lat.Quantile(0.50),
		LatencyMsP95:   lat.Quantile(0.95),
		LatencyMsP99:   lat.Quantile(0.99),
		LatencyMsMean:  lat.Mean(),
		LatencyMsMax:   float64(m.maxLatency.Load()) / float64(time.Millisecond),
		PeakGoroutines: peaks.goroutines,
		PeakHeapBytes:  peaks.heap,
	}, nil
}

// cycle runs one open → send → echo → close round and classifies the
// outcome: completed (full, verified echo), shed (closed before any echo
// byte — the tunnel refused us), or failed (broken mid-transfer).
func cycle(ctx context.Context, c Config, m *metrics, payload []byte, runStart time.Time) {
	start := time.Now()
	d := net.Dialer{Timeout: dialTimeout}
	conn, err := d.DialContext(ctx, "tcp", c.Addr)
	if err != nil {
		if ctx.Err() == nil {
			m.dialErrs.Inc()
			logf(c, "loadgen: dial: %v", err)
		}
		return
	}
	defer conn.Close()
	m.dialed.Inc()

	deadline := start.Add(opTimeout)
	if ctxDeadline, ok := ctx.Deadline(); ok {
		// Don't let a cycle outlive the run by more than a beat.
		if d := ctxDeadline.Add(500 * time.Millisecond); d.Before(deadline) {
			deadline = d
		}
	}
	conn.SetDeadline(deadline)

	var writeErr error
	writeDone := make(chan struct{})
	go func() {
		defer close(writeDone)
		if _, err := conn.Write(payload); err != nil {
			writeErr = err
			return
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
	}()

	echoed := make([]byte, 0, len(payload))
	buf := make([]byte, 32<<10)
	var readErr error
	for {
		n, err := conn.Read(buf)
		echoed = append(echoed, buf[:n]...)
		if err != nil {
			if err != io.EOF {
				readErr = err
			}
			break
		}
	}
	<-writeDone
	m.sent.Add(int64(len(payload)))
	m.echoed.Add(int64(len(echoed)))

	switch {
	case len(echoed) == 0:
		// Closed before a single echo byte: the far side shed us.
		m.shed.Inc()
	case readErr != nil || writeErr != nil || len(echoed) != len(payload):
		m.failed.Inc()
		logf(c, "loadgen: cycle failed: sent=%d echoed=%d writeErr=%v readErr=%v",
			len(payload), len(echoed), writeErr, readErr)
	case c.Verify && !bytes.Equal(echoed, payload):
		m.failed.Inc()
		logf(c, "loadgen: echo mismatch on %d-byte payload", len(payload))
	default:
		m.completed.Inc()
		m.observeLatency(time.Since(start))
		if c.Recorder != nil {
			c.Recorder.Record(time.Since(runStart).Seconds(), int64(len(payload)))
		}
	}
}

// observeLatency records one completed cycle's latency.
func (m *metrics) observeLatency(d time.Duration) {
	m.latency.Observe(float64(d) / float64(time.Millisecond))
	for old := m.maxLatency.Load(); int64(d) > old; old = m.maxLatency.Load() {
		if m.maxLatency.CompareAndSwap(old, int64(d)) {
			return
		}
	}
}

func logf(c Config, format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}
