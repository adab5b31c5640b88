package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"adaptio/internal/block"
	"adaptio/internal/obs"
	"adaptio/internal/stats"
)

const (
	// warmUp is the untimed load before every timed run: the decider
	// leaves its start level, pools and socket buffers fill.
	warmUp = 2 * time.Second
	// setupPasses is how often an untraced run sets the workload up; the
	// median of the passes is setup_s.
	setupPasses = 5
	// maxInFlight is the bulk generator's window: it begins an op only
	// while fewer than this many are unverified (4 MiB). The serial writer
	// and the block pipeline hold less than half of that, so they never
	// feel it. The relay path would otherwise queue whatever the kernel's
	// socket autotuning allows that day (1.5 to 10 MB were seen), and op
	// latency would measure the autotuner, not the path.
	maxInFlight = 16
)

// env is what one pass of a workload runs with.
type env struct {
	run     time.Duration // timed-run length
	warm    time.Duration // untimed load before it
	workers int           // connections or pipeline workers: min(nproc, 4)
	rec     *recorder     // nil with tracing off
	// static pins the level of a scarce reference run; -1 means the
	// workload's own level policy.
	static int
	// wrapWire, if set, wraps the wire a direct stream workload writes to;
	// the corrupted-wire test flips a byte there.
	wrapWire func(io.Writer) io.Writer
}

// opRec is one completed op: when its last byte was verified, and how long
// after the generator began writing it.
type opRec struct {
	done    time.Time
	latency time.Duration
	bytes   int
	ok      bool
}

// session is one set-up instance of a workload: the path under test, the
// load on it and what the load observed.
type session struct {
	e      *env
	reg    *obs.Registry // the program's own counters for this session
	origin time.Time     // start of the timed run

	stop    atomic.Bool    // tells the generators to finish their op and close
	dead    chan struct{}  // closed on the first transport failure
	firstOp chan struct{}  // closed when the first op has been verified
	wg      sync.WaitGroup // generators and receivers: end when the load drains
	bg      sync.WaitGroup // servers: end at teardown
	sendAt  chan time.Time // bulk: when the generator began each op, in order

	mu     sync.Mutex
	ops    []opRec
	sent   int // ops the generators began
	errs   []error
	abort  []func() // after a failure: close connections so the load unblocks
	closer []func() // teardown, run last to first

	once struct{ dead, first sync.Once }

	// Layer hooks, read by the ledger.
	paced        *pacedWriter
	streamScopes []string     // registry prefixes of the stream writers in the path
	tunnelScopes []string     // registry prefixes of the tunnel endpoints
	wireWrites   atomic.Int64 // writes on the tunnel's wire connections
	observed     *observeShim // traced scarce runs
	genTrack     *track       // the first generator's span track
	writeSpan    string       // name of the span around the generator's write
	echo         int          // interactive-echo: its connections; 0 on a bulk path
}

func newSession(e *env) *session {
	return &session{
		e:       e,
		reg:     obs.NewRegistry(),
		origin:  time.Now().Add(e.warm),
		dead:    make(chan struct{}),
		firstOp: make(chan struct{}),
		sendAt:  make(chan time.Time, maxInFlight),
	}
}

// fail records a transport or verification failure and unblocks the load.
func (s *session) fail(err error) {
	s.mu.Lock()
	s.errs = append(s.errs, err)
	abort := s.abort
	s.mu.Unlock()
	s.once.dead.Do(func() {
		close(s.dead)
		for _, f := range abort {
			f()
		}
	})
}

// owns registers connections of the path: closed at teardown, and at once
// when the run fails, so that no load goroutine stays blocked on them.
func (s *session) owns(conns ...io.Closer) {
	closeAll := func() {
		for _, c := range conns {
			c.Close()
		}
	}
	s.mu.Lock()
	s.abort = append(s.abort, closeAll)
	s.closer = append(s.closer, closeAll)
	s.mu.Unlock()
}

func (s *session) markFirst() { s.once.first.Do(func() { close(s.firstOp) }) }

func (s *session) addOps(ops []opRec, sent int) {
	s.mu.Lock()
	s.ops = append(s.ops, ops...)
	s.sent += sent
	s.mu.Unlock()
}

// bulkPath is the two ends of a bulk workload's path.
type bulkPath struct {
	sink      io.Writer    // the generator writes segments here
	closeSink func() error // ends the stream so the receiver sees EOF
	source    io.Reader    // delivered application bytes
}

// startBulk runs a closed-loop generator and a verifying receiver over p:
// the generator's next segment goes out when the path has taken the one
// before.
func (s *session) startBulk(p bulkPath, in *inputs) {
	s.wg.Add(2)
	go func() {
		defer s.wg.Done()
		sent := 0
		defer func() { s.addOps(nil, sent) }()
		var err error
	send:
		for err == nil && !s.stop.Load() {
			select {
			case s.sendAt <- time.Now():
			case <-s.dead:
				break send
			}
			sp := s.genTrack.begin(s.writeSpan)
			_, err = p.sink.Write(in.segment(sent))
			s.genTrack.end(sp)
			sent++
		}
		if err != nil {
			s.fail(fmt.Errorf("generator: op %d: %w", sent-1, err))
		}
		// Close even after a failure: the writer's arena buffers go back.
		sp := s.genTrack.begin("stream.writer.close")
		cerr := p.closeSink()
		s.genTrack.end(sp)
		if cerr != nil && err == nil {
			s.fail(fmt.Errorf("generator: close: %w", cerr))
		}
	}()
	go func() {
		defer s.wg.Done()
		buf := make([]byte, opBytes)
		var ops []opRec
		defer func() { s.addOps(ops, 0) }()
		for i := 0; ; i++ {
			n, err := io.ReadFull(p.source, buf)
			if err == io.EOF {
				return
			}
			if err != nil {
				s.fail(fmt.Errorf("receiver: op %d: %d of %d bytes: %w", i, n, opBytes, err))
				return
			}
			now := time.Now()
			ops = append(ops, opRec{
				done:    now,
				latency: now.Sub(<-s.sendAt),
				bytes:   opBytes,
				ok:      bytes.Equal(buf, in.segment(i)),
			})
			s.markFirst()
		}
	}()
}

// finish stops the load, waits for it to drain and tears the path down.
func (s *session) finish() {
	s.stop.Store(true)
	s.wg.Wait()
	for i := len(s.closer) - 1; i >= 0; i-- {
		s.closer[i]()
	}
	s.bg.Wait()
}

// failures returns how many ops failed and every reason the run is not
// correct: mismatched ops, ops sent but never verified, transport errors.
func (s *session) failures() (int, []error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	errs := append([]error(nil), s.errs...)
	failed := 0
	for _, op := range s.ops {
		if !op.ok {
			failed++
		}
	}
	if failed > 0 {
		errs = append(errs, fmt.Errorf("%d ops delivered bytes that differ from what was sent", failed))
	}
	if lost := s.sent - len(s.ops); lost > 0 {
		failed += lost
		errs = append(errs, fmt.Errorf("%d of %d ops were sent but never verified", lost, s.sent))
	}
	if failed == 0 && len(errs) > 0 {
		failed = len(errs)
	}
	return failed, errs
}

// edge is the state read at one edge of the timed run.
type edge struct {
	at     time.Time
	proc   procSnapshot
	stream streamCounters
	sent   int64 // pacer bytes
	slept  int64 // pacer wait, ns
	writes int64 // tunnel wire writes
}

func (s *session) readEdge() (edge, error) {
	p, err := readProc()
	if err != nil {
		return edge{}, err
	}
	e := edge{at: time.Now(), proc: p, stream: readStreams(s.reg, s.streamScopes), writes: s.wireWrites.Load()}
	if s.paced != nil {
		e.sent, e.slept = s.paced.sent.Load(), s.paced.sleptNs.Load()
	}
	return e, nil
}

// measured is one timed run of a workload.
type measured struct {
	s        *session
	from, to edge
	ops      []opRec   // verified inside the timed run
	setups   []float64 // seconds per set-up pass
	failed   int
	errs     []error
	inUse    int64 // arena buffers still owned after teardown
	spans    []span
}

func (m *measured) seconds() float64 { return m.to.at.Sub(m.from.at).Seconds() }

func (m *measured) appBytes() float64 {
	var n float64
	for _, op := range m.ops {
		n += float64(op.bytes)
	}
	return n
}

func (m *measured) goodputMBps() float64 { return ratio(m.appBytes()/1e6, m.seconds()) }

// cpuSecondsPerGB is the process's user and system CPU time over the timed
// run per 10^9 verified application bytes.
func (m *measured) cpuSecondsPerGB() float64 {
	return ratio(m.to.proc.cpuSeconds-m.from.proc.cpuSeconds, m.appBytes()/1e9)
}

func (m *measured) latencyMs() latencySummary { return summarize(m.latencyXs()) }

// measure sets the workload up (passes times; the last set-up carries the
// load), warms it, and reads both edges of the timed run.
func measure(w *workload, seed uint64, e *env, passes int) (*measured, error) {
	m := &measured{}
	var s *session
	for pass := 0; ; pass++ {
		begin := time.Now()
		var err error
		if s, err = w.open(e, w.inputs(seed, e)); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		select {
		case <-s.firstOp:
		case <-s.dead:
		}
		m.setups = append(m.setups, time.Since(begin).Seconds())
		if pass == passes-1 {
			break
		}
		s.finish()
		if _, errs := s.failures(); len(errs) > 0 {
			return nil, fmt.Errorf("%s: set-up pass %d: %w", w.name, pass, errors.Join(errs...))
		}
		// Collect this pass's inputs before the next pass makes its own, so
		// that peak_rss_mb is the program's memory, not a pile of corpora
		// whose size depends on when the collector happened to run.
		runtime.GC()
	}
	m.s = s
	// A load that dies closes s.dead after recording why, so a cut-short
	// wait needs no error of its own: failures() reports the cause.
	var err error
	if sleepUntil(s.origin, s.dead) {
		if m.from, err = s.readEdge(); err == nil && sleepUntil(s.origin.Add(e.run), s.dead) {
			m.to, err = s.readEdge()
		}
	}
	s.finish()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	m.failed, m.errs = s.failures()
	for _, op := range s.ops {
		if !op.done.Before(m.from.at) && op.done.Before(m.to.at) {
			m.ops = append(m.ops, op)
		}
	}
	gets, releases, _ := block.Stats()
	if m.inUse = gets - releases; m.inUse != 0 {
		m.failed++
		m.errs = append(m.errs, fmt.Errorf("%d arena buffers still in use after teardown", m.inUse))
	}
	if e.rec != nil {
		m.spans = e.rec.merged()
	}
	return m, nil
}

// sleepUntil waits for t; it reports false if dead closes first.
func sleepUntil(t time.Time, dead <-chan struct{}) bool {
	timer := time.NewTimer(time.Until(t))
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-dead:
		return false
	}
}

// endToEndReadings derives the end-to-end metrics of an untraced run.
func (m *measured) endToEndReadings() (map[string]float64, latencySummary, error) {
	rss, err := peakRSSMB()
	if err != nil {
		return nil, latencySummary{}, err
	}
	lat := m.latencyMs()
	d := m.to.stream.sub(m.from.stream)
	r := map[string]float64{
		"goodput_mb_s": m.goodputMBps(),
		"wire_ratio":   ratio(float64(d.wire), float64(d.app)),
		"cpu_s_per_gb": m.cpuSecondsPerGB(),
		"rtt_p50_ms":   lat.Median,
		"rtt_p99_ms":   stats.Quantile(m.latencyXs(), 0.99),
		"peak_rss_mb":  rss,
		"setup_s":      stats.Quantile(m.setups, 0.5),
	}
	return r, lat, nil
}

func (m *measured) latencyXs() []float64 {
	xs := make([]float64, len(m.ops))
	for i, op := range m.ops {
		xs[i] = float64(op.latency) / 1e6
	}
	return xs
}

// ratio is a/b, and 0 when b is 0 (the run moved nothing).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
