// Package tunnel provides an adaptive-compression TCP tunnel: a pair of
// proxies that transparently compress arbitrary TCP traffic between them
// with the paper's rate-based scheme. This is the "infrastructure agnostic"
// deployment story of the paper taken literally — a cloud customer inserts
// the tunnel between application and network without touching hypervisor,
// kernel, or application:
//
//	app ──plain──▶ Entry ══compressed══▶ Exit ──plain──▶ service
//	    ◀──plain──       ◀══compressed══      ◀──plain──
//
// Each direction of every connection carries an independent adaptive
// compression stream (its own Decider), so the two directions converge to
// different levels when their data or available bandwidth differ.
//
// The tunnel is hardened against the faults shared cloud I/O actually
// produces (see docs/robustness.md and internal/faultio): per-connection
// idle deadlines tear down stalled peers, dials retry with exponential
// backoff and jitter, shutdown is bounded by a grace period, and every
// failed connection direction reports a typed, wrapped error through
// ConnStats.Err.
//
// Under heavy traffic the endpoint bounds its own resources (see
// docs/scaling.md): Config.MaxConns caps concurrently served connections,
// Config.AcceptQueue bounds how many more may wait for a slot, and
// everything beyond that is shed — closed immediately and counted — so
// goroutine and buffer demand stay O(MaxConns + AcceptQueue) no matter how
// fast clients arrive. Endpoint.Close drains gracefully: stop accepting,
// shed the queue, let in-flight relays finish within ShutdownGrace, then
// force-close the rest.
package tunnel

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"time"

	"adaptio/internal/core"
	"adaptio/internal/obs"
	"adaptio/internal/stream"
	"adaptio/internal/xrand"
)

// Typed sentinels carried (wrapped) by ConnStats.Err and relay errors.
var (
	// ErrDial marks a connection that never reached its peer: all dial
	// attempts (including retries) failed.
	ErrDial = errors.New("tunnel: dial failed")
	// ErrIdleTimeout marks a connection direction torn down because no
	// bytes crossed it within Config.IdleTimeout.
	ErrIdleTimeout = errors.New("tunnel: idle timeout")
)

// DefaultDialTimeout bounds each dial attempt to the peer or target.
// DefaultDialBackoff: see Config.DialBackoff.
const (
	DefaultDialTimeout = 10 * time.Second
	DefaultDialBackoff = 100 * time.Millisecond
	maxDialBackoff     = 5 * time.Second
)

// Config tunes the compression and robustness behaviour of a tunnel
// endpoint.
type Config struct {
	// Window is the decision window t; zero means the paper's 2 s.
	Window time.Duration
	// Static pins a level instead of adapting (for comparison runs).
	//
	// Deprecated: outside tests only bench/ sets Static and StaticLevel;
	// pin a level with Policy returning core.Static(n).
	Static      bool
	StaticLevel int
	// Policy, if non-nil, supplies the level-selection policy of each
	// connection's compress path; nil means the paper's Algorithm 1 at
	// α = 0.2. It is called once per served connection, when the compress
	// path starts — never for a connection that is shed or still queued —
	// and may be called from several goroutines at once. A returned policy
	// with a Detach() method (a coord.Stream) has it called when the
	// compress path ends. Rejected together with Static. The CLIs build it
	// with core.PolicyFromFlags or from a coordinator's Register; see
	// docs/deciders.md and docs/coordination.md.
	Policy func() core.Policy
	// OnDone, if non-nil, receives the sender-side compression stats of
	// every finished connection direction. ConnStats.Err, when non-nil,
	// wraps a typed sentinel: ErrIdleTimeout, stream.ErrBadFrame (via
	// *stream.FrameError), or the transport's net.Error.
	OnDone func(ConnStats)
	// Logf, if non-nil, receives connection lifecycle messages.
	Logf func(format string, args ...any)

	// Every count and duration from here to FlushInterval is zero or
	// positive: ListenEntry and ListenExit refuse a negative one.

	// DialRetries is the number of extra dial attempts after the first
	// fails (0 = fail fast). Retries back off exponentially from
	// DialBackoff with ±50% jitter, capped at 5s.
	DialRetries int
	// DialBackoff is the base backoff between dial attempts. Zero means
	// DefaultDialBackoff.
	DialBackoff time.Duration
	// IdleTimeout, if > 0, bounds how long a connection direction may go
	// without a byte crossing it: each read and write carries a deadline
	// of now+IdleTimeout, so a stalled or vanished peer is detected and
	// the direction fails with an error wrapping ErrIdleTimeout instead
	// of hanging forever.
	IdleTimeout time.Duration
	// ShutdownGrace bounds Endpoint.Close: active connections get this
	// long to drain before being force-closed. Zero keeps the
	// force-close-immediately behaviour.
	ShutdownGrace time.Duration
	// MaxConns bounds the number of concurrently served connections (each
	// one costs a fixed set of relay goroutines and arena buffers). Zero
	// means unlimited. See docs/scaling.md.
	MaxConns int
	// AcceptQueue bounds how many connections beyond MaxConns may wait
	// for a relay slot before excess connections are shed (closed without
	// service). Zero means no queue: once MaxConns are busy, every new
	// connection sheds immediately. Ignored when MaxConns is zero.
	AcceptQueue int
	// WrapWire, if non-nil, wraps the wire-side (compressed) connection
	// before the relay uses it. This is the seam the fault-injection
	// tests use (internal/faultio.WrapConn); production configs leave it
	// nil.
	WrapWire func(net.Conn) net.Conn

	// FlushInterval is the compress path's coalescing interval: a partial
	// block waits for more data until FlushInterval after the last frame
	// cut, and is framed at once when no frame was cut for that long or
	// none yet (a connection's first message), so low-rate or interactive
	// traffic is not stalled by full-block framing and at most one partial
	// frame per interval, besides the first, is cut. Zero means
	// DefaultFlushInterval.
	FlushInterval time.Duration

	// Obs, if non-nil, is the observability scope the endpoint registers
	// its metrics under (conventionally "tunnel"): connection counts,
	// dial retry/failure counters, idle-timeout teardowns, relay byte
	// totals, plus the compression stream's own metrics under
	// "<scope>.stream.writer". actunnel wires this to -metrics-addr.
	Obs *obs.Scope
}

// tunnelMetrics are an endpoint's instruments, resolved once per endpoint
// so per-connection work never touches the registry.
type tunnelMetrics struct {
	connsTotal    *obs.Counter
	connsActive   *obs.Gauge
	connsPeak     *obs.Gauge
	connsAccepted *obs.Counter
	connsShed     *obs.Counter
	connsQueued   *obs.Gauge
	queueWaitMs   *obs.Histogram
	dialAttempts  *obs.Counter
	dialRetries   *obs.Counter
	dialFailures  *obs.Counter
	idleTimeouts  *obs.Counter
	txAppBytes    *obs.Counter // plain->wire direction, pre-compression
	txWireBytes   *obs.Counter
	txSwitches    *obs.Counter
	rxAppBytes    *obs.Counter // wire->plain direction, post-decompression
	rxWireBytes   *obs.Counter
	rxBlocks      *obs.Counter
	// Copy accounting (docs/performance.md, "Zero-copy relay"):
	// bytesCopied counts user-space buffer-to-buffer copies on the data
	// path, passthroughBytes counts bytes relayed without any. Their sum
	// over app bytes is exposed as bytes_copied_per_byte_relayed.
	bytesCopied      *obs.Counter
	passthroughBytes *obs.Counter
	// streamScope is forwarded to every connection's stream.Writer, so
	// all connections aggregate into one set of stream metrics.
	streamScope *obs.Scope
}

func newTunnelMetrics(scope *obs.Scope) *tunnelMetrics {
	conns := scope.Scope("conns")
	dial := scope.Scope("dial")
	relay := scope.Scope("relay")
	txApp := relay.Counter("tx_app_bytes")
	rxApp := relay.Counter("rx_app_bytes")
	copied := relay.Counter("bytes_copied")
	// The copy-accounting gate's observable: user-space copies per byte
	// relayed. About 0 for zero-copy traffic (NO-level vectored frames,
	// where only a pending block's growth copies), ~1 when every byte
	// crosses one codec transform.
	relay.FloatFunc("bytes_copied_per_byte_relayed", func() float64 {
		relayed := txApp.Value() + rxApp.Value()
		if relayed == 0 {
			return 0
		}
		return float64(copied.Value()) / float64(relayed)
	})
	return &tunnelMetrics{
		connsTotal:    conns.Counter("total"),
		connsActive:   conns.Gauge("active"),
		connsPeak:     conns.Gauge("peak"),
		connsAccepted: conns.Counter("accepted"),
		connsShed:     conns.Counter("shed"),
		connsQueued:   conns.Gauge("queued"),
		queueWaitMs:   conns.Histogram("queue_wait_ms", nil),
		dialAttempts:  dial.Counter("attempts"),
		dialRetries:   dial.Counter("retries"),
		dialFailures:  dial.Counter("failures"),
		idleTimeouts:  scope.Counter("idle_timeouts"),
		txAppBytes:    txApp,
		txWireBytes:   relay.Counter("tx_wire_bytes"),
		txSwitches:    relay.Counter("tx_level_switches"),
		rxAppBytes:    rxApp,
		rxWireBytes:   relay.Counter("rx_wire_bytes"),
		rxBlocks:      relay.Counter("rx_blocks"),

		bytesCopied:      copied,
		passthroughBytes: relay.Counter("passthrough_bytes"),
		streamScope:      scope.Scope("stream").Scope("writer"),
	}
}

// ConnStats describes one finished connection direction.
type ConnStats struct {
	// Direction is "entry->exit" or "exit->entry".
	Direction string
	Stats     stream.Stats
	Err       error
}

func (c Config) writerConfig(obsScope *obs.Scope) stream.WriterConfig {
	cfg := stream.WriterConfig{Window: c.Window, Obs: obsScope}
	if c.Static {
		cfg.Decider = core.Static(c.StaticLevel)
	}
	return cfg
}

func (c Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// jitterRNG drives backoff jitter. Determinism does not matter here (it
// never decides outcomes, only spreads retry instants), but xrand keeps the
// package free of math/rand's global state.
var jitterRNG = struct {
	sync.Mutex
	*xrand.RNG
}{RNG: xrand.New(0x7ea5)}

func jitter(d time.Duration) time.Duration {
	jitterRNG.Lock()
	f := 0.5 + jitterRNG.Float64() // uniform in [0.5, 1.5)
	jitterRNG.Unlock()
	return time.Duration(float64(d) * f)
}

// dialPeer dials addr with cfg's retry and backoff policy. The returned
// error wraps ErrDial.
func dialPeer(ctx context.Context, addr string, cfg Config, m *tunnelMetrics) (net.Conn, error) {
	backoff := cfg.DialBackoff
	if backoff <= 0 {
		backoff = DefaultDialBackoff
	}
	d := net.Dialer{Timeout: DefaultDialTimeout}
	var lastErr error
	for attempt := 0; ; attempt++ {
		m.dialAttempts.Inc()
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		if attempt >= cfg.DialRetries || ctx.Err() != nil {
			m.dialFailures.Inc()
			return nil, fmt.Errorf("%w: %s after %d attempt(s): %v", ErrDial, addr, attempt+1, lastErr)
		}
		m.dialRetries.Inc()
		wait := jitter(backoff)
		if backoff < maxDialBackoff {
			backoff *= 2
		}
		cfg.logf("tunnel: dial %s attempt %d failed (%v), retrying in %v", addr, attempt+1, err, wait)
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return nil, fmt.Errorf("%w: %s after %d attempt(s): %v", ErrDial, addr, attempt+1, lastErr)
		}
	}
}

// Endpoint is a running tunnel endpoint (entry or exit).
type Endpoint struct {
	ln     net.Listener
	cancel context.CancelFunc
	wg     sync.WaitGroup
	grace  time.Duration
	admit  *admitter
	// pool is the encode workers every compress path of this endpoint
	// shares: GOMAXPROCS of them per endpoint, not per connection, because
	// the CPU they follow is process-wide. Nil on one CPU, where a second
	// goroutine could only take turns with the pump; the compress path then
	// encodes inline.
	pool      *stream.EncodePool
	closeOnce sync.Once
	closeErr  error
}

// Addr returns the endpoint's listen address.
func (e *Endpoint) Addr() net.Addr { return e.ln.Addr() }

// Close drains the endpoint gracefully: it stops accepting, sheds every
// connection still queued for a relay slot, gives in-flight relays
// Config.ShutdownGrace to finish (their peers see EOF), then force-closes
// whatever remains and waits for every relay goroutine to exit. With a zero
// grace it force-closes immediately. Close is idempotent; concurrent and
// repeated calls share one drain.
func (e *Endpoint) Close() error {
	e.closeOnce.Do(func() {
		e.closeErr = e.ln.Close()
		e.admit.drain()
		done := make(chan struct{})
		go func() {
			e.wg.Wait()
			close(done)
		}()
		if e.grace > 0 {
			t := time.NewTimer(e.grace)
			select {
			case <-done:
			case <-t.C:
			}
			t.Stop()
		}
		e.cancel()
		<-done
		// Every relay has closed its writer, which drained its frames out of
		// the pool first: the workers are idle.
		if e.pool != nil {
			e.pool.Close()
		}
	})
	return e.closeErr
}

// halfCloser is the subset of *net.TCPConn the relay needs for half-close
// semantics.
type halfCloser interface {
	net.Conn
	CloseWrite() error
}

// ListenEntry starts the entry endpoint: applications connect to listenAddr
// with plain TCP; traffic is adaptively compressed toward the exit endpoint
// at exitAddr. Dials to the exit retry per Config.DialRetries.
func ListenEntry(ctx context.Context, listenAddr, exitAddr string, cfg Config) (*Endpoint, error) {
	return listen(ctx, listenAddr, cfg, exitAddr, true)
}

// ListenExit starts the exit endpoint: it accepts compressed tunnel
// connections and forwards plain TCP to targetAddr.
func ListenExit(ctx context.Context, listenAddr, targetAddr string, cfg Config) (*Endpoint, error) {
	return listen(ctx, listenAddr, cfg, targetAddr, false)
}

func listen(ctx context.Context, listenAddr string, cfg Config, dialAddr string, acceptsPlain bool) (*Endpoint, error) {
	if cfg.Static && cfg.Policy != nil {
		return nil, errors.New("tunnel: Static is incompatible with Policy (a pinned level leaves nothing to decide)")
	}
	for _, f := range []struct {
		name string
		v    any
		neg  bool
	}{
		{"FlushInterval", cfg.FlushInterval, cfg.FlushInterval < 0},
		{"IdleTimeout", cfg.IdleTimeout, cfg.IdleTimeout < 0},
		{"ShutdownGrace", cfg.ShutdownGrace, cfg.ShutdownGrace < 0},
		{"DialBackoff", cfg.DialBackoff, cfg.DialBackoff < 0},
		{"DialRetries", cfg.DialRetries, cfg.DialRetries < 0},
		{"MaxConns", cfg.MaxConns, cfg.MaxConns < 0},
		{"AcceptQueue", cfg.AcceptQueue, cfg.AcceptQueue < 0},
	} {
		if f.neg {
			return nil, fmt.Errorf("tunnel: negative %s %v", f.name, f.v)
		}
	}
	// Everything else a compress path could refuse to start on (a level off
	// the ladder, a negative Window) is refused here, by the writer
	// itself. Policy is not called: it counts connections.
	w, err := stream.NewWriter(io.Discard, cfg.writerConfig(nil))
	if err != nil {
		return nil, fmt.Errorf("tunnel: %w", err)
	}
	w.Close()
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, err
	}
	runCtx, cancel := context.WithCancel(ctx)
	m := newTunnelMetrics(cfg.Obs)
	ep := &Endpoint{ln: ln, cancel: cancel, grace: cfg.ShutdownGrace, admit: newAdmitter(cfg, m)}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		ep.pool = stream.NewEncodePool(n)
	}
	ep.wg.Add(1)
	go func() {
		defer ep.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				if runCtx.Err() == nil && !errors.Is(err, net.ErrClosed) {
					cfg.logf("tunnel: accept: %v", err)
				}
				return
			}
			// Admission control (docs/scaling.md): the accept loop never
			// blocks and never spawns a goroutine for a shed connection,
			// so goroutine count is O(MaxConns + AcceptQueue) regardless
			// of arrival rate.
			decision := ep.admit.tryAdmit()
			if decision == admitShed {
				ep.admit.shed(conn)
				continue
			}
			ep.wg.Add(1)
			go func() {
				defer ep.wg.Done()
				ep.serve(runCtx, conn, decision, dialAddr, cfg, acceptsPlain, m)
			}()
		}
	}()
	return ep, nil
}

// serve runs one admitted (or queued) connection to completion: wait for a
// relay slot if queued, dial the peer, then relay until both directions
// finish.
func (e *Endpoint) serve(ctx context.Context, conn net.Conn, decision admitDecision, dialAddr string, cfg Config, acceptsPlain bool, m *tunnelMetrics) {
	if decision == admitQueued {
		if !e.admit.wait(ctx.Done()) {
			e.admit.shed(conn)
			return
		}
	}
	// conns.active counts slots held, and a slot is back before the gauge
	// falls: a client that reads it below MaxConns is admitted. While slots
	// change hands the gauge may read high, so a bounded peak counts slots.
	m.connsActive.Add(1)
	held := m.connsActive.Value()
	if e.admit.sem != nil {
		held = int64(len(e.admit.sem))
	}
	m.connsPeak.SetMax(held)
	defer m.connsActive.Add(-1)
	defer e.admit.release()
	if decision == admitQueued && !peerAlive(conn) {
		// The client hung up while parked in the accept queue: shed
		// instead of dialing the peer and relaying a dead connection.
		e.admit.shed(conn)
		return
	}
	m.connsAccepted.Inc()
	peer, err := dialPeer(ctx, dialAddr, cfg, m)
	if err != nil {
		cfg.logf("tunnel: %v", err)
		conn.Close()
		return
	}
	var plain, wire net.Conn
	if acceptsPlain {
		plain, wire = conn, peer
	} else {
		plain, wire = peer, conn
	}
	if cfg.WrapWire != nil {
		wire = cfg.WrapWire(wire)
	}
	direction := "exit->entry"
	if acceptsPlain {
		direction = "entry->exit"
	}
	if relayErr := relay(ctx, plain, wire, cfg, direction, m, e.pool); relayErr != nil {
		cfg.logf("tunnel: relay: %v", relayErr)
	}
}

// idleConn applies Config.IdleTimeout as a rolling per-operation deadline:
// every read and write must make progress within the window or fail with a
// timeout. It deliberately does not forward CloseWrite — half-close stays
// with the original conns in relay.
type idleConn struct {
	net.Conn
	idle time.Duration
}

func (c *idleConn) Read(p []byte) (int, error) {
	if err := c.Conn.SetReadDeadline(time.Now().Add(c.idle)); err != nil {
		return 0, err
	}
	return c.Conn.Read(p)
}

func (c *idleConn) Write(p []byte) (int, error) {
	if err := c.Conn.SetWriteDeadline(time.Now().Add(c.idle)); err != nil {
		return 0, err
	}
	return c.Conn.Write(p)
}

// WriteVectored implements stream.VectoredWriter so the relay's frame
// writer keeps its writev fast path through the idle-deadline wrapper: the
// deadline covers the whole vectored write, and the pieces are re-dispatched
// on the inner conn (writev for a raw TCP conn, writeFull fallback for
// fault-injected wrappers).
func (c *idleConn) WriteVectored(hdr, payload []byte) error {
	if err := c.Conn.SetWriteDeadline(time.Now().Add(c.idle)); err != nil {
		return err
	}
	return stream.WriteVectored(c.Conn, hdr, payload)
}

// withIdle wraps c with the idle deadline policy when configured.
func withIdle(c net.Conn, idle time.Duration) net.Conn {
	if idle <= 0 {
		return c
	}
	return &idleConn{Conn: c, idle: idle}
}

// classify wraps err with the tunnel's typed sentinels: transport timeouts
// (idle deadline expiries, stalled peers) become ErrIdleTimeout; everything
// else passes through (stream framing errors already wrap
// stream.ErrBadFrame, transport errors are net.Errors).
func classify(err error) error {
	if err == nil {
		return nil
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return fmt.Errorf("%w: %v", ErrIdleTimeout, err)
	}
	return err
}

// relay shuttles one connection until both directions finish: the compress
// path frames plain-side bytes onto the wire, the decompress path decodes
// wire frames back to plain bytes (internal/tunnel/relaypath.go). Within the
// compress path the zero-copy choice is made per block: whenever the level
// scheme sits at (or falls back to) NO, frames go out stored-raw and
// vectored, aliasing the pending block — so crossing into or out of NO
// mid-stream flips the data path without reconnecting.
func relay(ctx context.Context, plain, wire net.Conn, cfg Config, direction string, m *tunnelMetrics, pool *stream.EncodePool) error {
	defer plain.Close()
	defer wire.Close()
	m.connsTotal.Inc()

	plainCW, _ := plain.(halfCloser)
	wireCW, _ := wire.(halfCloser)

	// Tear connections down if the endpoint is shut down mid-relay.
	defer context.AfterFunc(ctx, func() {
		plain.Close()
		wire.Close()
	})()

	plainRW := withIdle(plain, cfg.IdleTimeout)
	wireRW := withIdle(wire, cfg.IdleTimeout)
	// The compress path reads the RAW plain conn: it owns that side's read
	// deadlines (idle + coalescing flush). plainRW still applies the idle
	// policy to the decompress path's writes.
	tx := &compressPath{cfg: cfg, m: m, pool: pool, direction: direction, plain: plain, wire: wireRW, wireCW: wireCW}
	rx := &decompressPath{cfg: cfg, m: m, wire: wireRW, plain: plainRW, plainCW: plainCW}

	// The compress direction runs on the calling goroutine, so a relayed
	// connection costs one goroutine per direction and none that only waits.
	errs := make(chan error, 2)
	go func() { errs <- rx.run() }()
	errs <- tx.run()
	// Both directions report before relay returns. Whichever fails first is
	// often the benign half (a peer reset) of a teardown whose cause the
	// other half then names, so the first serious error wins, not the first
	// to arrive.
	var serious error
	for i := 0; i < cap(errs); i++ {
		if err := <-errs; serious == nil && !isBenignNetErr(err) {
			serious = err
		}
	}
	return serious
}

// isBenignNetErr filters the errors every TCP relay sees at teardown. Idle
// timeouts and framing errors are not benign: they indicate a stalled peer
// or a corrupted wire and must be surfaced.
func isBenignNetErr(err error) bool {
	if err == nil || errors.Is(err, net.ErrClosed) || errors.Is(err, io.EOF) {
		return true
	}
	if errors.Is(err, ErrIdleTimeout) || errors.Is(err, stream.ErrBadFrame) {
		return false
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return false
	}
	var op *net.OpError
	return errors.As(err, &op)
}
