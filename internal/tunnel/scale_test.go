package tunnel_test

import (
	"bytes"
	"context"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"adaptio/internal/corpus"
	"adaptio/internal/faultio"
	"adaptio/internal/faultio/leakcheck"
	"adaptio/internal/obs"
	"adaptio/internal/tunnel"
)

// scaleHarness is an echo service behind an exit+entry pair where only the
// entry carries the admission config under test; the exit is unlimited so
// the entry is the bottleneck being observed.
type scaleHarness struct {
	reg   *obs.Registry
	entry *tunnel.Endpoint
	exit  *tunnel.Endpoint
	addr  string
}

func startScaleHarness(t *testing.T, entryCfg tunnel.Config) *scaleHarness {
	t.Helper()
	echo := startEcho(t)
	reg := obs.NewRegistry()
	entryCfg.Obs = reg.Scope("tunnel")
	entryCfg.Logf = t.Logf
	exit, err := tunnel.ListenExit(context.Background(), "127.0.0.1:0", echo, tunnel.Config{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { exit.Close() })
	entry, err := tunnel.ListenEntry(context.Background(), "127.0.0.1:0", exit.Addr().String(), entryCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { entry.Close() })
	return &scaleHarness{reg: reg, entry: entry, exit: exit, addr: entry.Addr().String()}
}

func (h *scaleHarness) counter(t *testing.T, name string) int64 {
	t.Helper()
	c, ok := h.reg.Get(name).(*obs.Counter)
	if !ok {
		t.Fatalf("metric %q missing or not a counter", name)
	}
	return c.Value()
}

func (h *scaleHarness) gauge(t *testing.T, name string) int64 {
	t.Helper()
	g, ok := h.reg.Get(name).(*obs.Gauge)
	if !ok {
		t.Fatalf("metric %q missing or not a gauge", name)
	}
	return g.Value()
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// holdConn dials the harness and keeps the connection open (one relay slot
// occupied) until the returned release func runs.
func holdConn(t *testing.T, addr string) func() {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("hold")); err != nil {
		t.Fatal(err)
	}
	return func() { conn.Close() }
}

// TestMaxConnsShedsExcess fills every relay slot, then verifies that further
// connections are shed — closed without service — and that the admission
// metrics account for every arrival.
func TestMaxConnsShedsExcess(t *testing.T) {
	leakcheck.Check(t)
	h := startScaleHarness(t, tunnel.Config{MaxConns: 2})

	r1 := holdConn(t, h.addr)
	r2 := holdConn(t, h.addr)
	defer r1()
	defer r2()
	waitFor(t, "both slots busy", func() bool { return h.counter(t, "tunnel.conns.accepted") == 2 })

	const excess = 5
	for i := 0; i < excess; i++ {
		conn, err := net.Dial("tcp", h.addr)
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		// A shed connection is closed without service: the read must fail
		// fast with no payload ever arriving.
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := conn.Read(make([]byte, 1)); err == nil {
			t.Fatalf("shed connection %d delivered %d bytes", i, n)
		}
		conn.Close()
	}
	waitFor(t, "shed counter", func() bool { return h.counter(t, "tunnel.conns.shed") == excess })
	if accepted := h.counter(t, "tunnel.conns.accepted"); accepted != 2 {
		t.Fatalf("accepted = %d, want 2", accepted)
	}

	// Releasing a slot restores service for new arrivals.
	r1()
	waitFor(t, "slot release", func() bool { return h.gauge(t, "tunnel.conns.active") < 2 })
	conn, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload := []byte("after release")
	conn.Write(payload)
	conn.(*net.TCPConn).CloseWrite()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	echoed, err := io.ReadAll(conn)
	if err != nil || !bytes.Equal(echoed, payload) {
		t.Fatalf("post-shed echo failed: %q, %v", echoed, err)
	}
}

// TestAcceptQueueParksThenServes verifies the middle band: a connection
// beyond MaxConns but within AcceptQueue parks (visible in the queued
// gauge), then gets served once a slot frees, with its wait recorded in the
// queue-wait histogram.
func TestAcceptQueueParksThenServes(t *testing.T) {
	leakcheck.Check(t)
	h := startScaleHarness(t, tunnel.Config{MaxConns: 1, AcceptQueue: 4})

	release := holdConn(t, h.addr)
	waitFor(t, "slot busy", func() bool { return h.counter(t, "tunnel.conns.accepted") == 1 })

	queued, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer queued.Close()
	waitFor(t, "connection queued", func() bool { return h.gauge(t, "tunnel.conns.queued") == 1 })

	// Free the slot: the queued connection must unpark and serve normally.
	release()
	payload := []byte("queued then served")
	if _, err := queued.Write(payload); err != nil {
		t.Fatal(err)
	}
	queued.(*net.TCPConn).CloseWrite()
	queued.SetReadDeadline(time.Now().Add(10 * time.Second))
	echoed, err := io.ReadAll(queued)
	if err != nil || !bytes.Equal(echoed, payload) {
		t.Fatalf("queued echo failed: %q, %v", echoed, err)
	}

	hist, ok := h.reg.Get("tunnel.conns.queue_wait_ms").(*obs.Histogram)
	if !ok {
		t.Fatal("queue_wait_ms histogram missing")
	}
	if hist.Count() < 1 {
		t.Fatalf("queue wait histogram recorded %d observations, want >= 1", hist.Count())
	}
	if h.gauge(t, "tunnel.conns.queued") != 0 {
		t.Fatalf("queued gauge = %d after service, want 0", h.gauge(t, "tunnel.conns.queued"))
	}
}

// TestGracefulDrainCompletesInFlight closes the entry while a response is
// still being produced: Close must wait for the in-flight relay (within
// ShutdownGrace), the client must receive the complete response, and no
// goroutine may leak.
func TestGracefulDrainCompletesInFlight(t *testing.T) {
	leakcheck.Check(t)
	response := corpus.Generate(corpus.Moderate, 256<<10, 11)

	// Service: read the request, pause, then respond — so the relay is
	// mid-flight when Close begins. It serves every connection it is sent:
	// a probe dial of waitNewDialsFail can reach the entry just before the
	// Close goroutine shuts the listener, is then legitimately relayed, and
	// must find a service that lets its relay finish rather than one that
	// leaves it for the force-close.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				io.Copy(io.Discard, conn)
				time.Sleep(200 * time.Millisecond)
				conn.Write(response)
				conn.(*net.TCPConn).CloseWrite()
			}()
		}
	}()

	reg := obs.NewRegistry()
	exit, err := tunnel.ListenExit(context.Background(), "127.0.0.1:0", ln.Addr().String(), tunnel.Config{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer exit.Close()
	entryCfg := tunnel.Config{ShutdownGrace: 10 * time.Second, Obs: reg.Scope("tunnel"), Logf: t.Logf}
	entry, err := tunnel.ListenEntry(context.Background(), "127.0.0.1:0", exit.Addr().String(), entryCfg)
	if err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", entry.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte("request"))
	conn.(*net.TCPConn).CloseWrite()

	active, _ := reg.Get("tunnel.conns.active").(*obs.Gauge)
	waitFor(t, "relay active", func() bool { return active.Value() == 1 })

	closed := make(chan time.Duration, 1)
	go func() {
		start := time.Now()
		entry.Close()
		closed <- time.Since(start)
	}()

	// New arrivals during the drain are refused (the listener is closed).
	waitNewDialsFail(t, entry.Addr().String())

	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	echoed, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("in-flight transfer broken by drain: %v", err)
	}
	if !bytes.Equal(echoed, response) {
		t.Fatalf("drain truncated the response: got %d bytes, want %d", len(echoed), len(response))
	}

	elapsed := <-closed
	if elapsed > 9*time.Second {
		t.Fatalf("Close took %v: force-close fired instead of graceful completion", elapsed)
	}
}

// TestGracefulDrainFlushesPooledFrames closes the entry while an upload is
// mid-flight towards a slow service, i.e. with cut blocks queued at the
// endpoint's shared encode workers and encoded frames waiting for the wire.
// Close must let the relay drain all of them before it stops the workers:
// the service receives every byte, and no goroutine outlives Close.
func TestGracefulDrainFlushesPooledFrames(t *testing.T) {
	leakcheck.Check(t)
	upload := corpus.Generate(corpus.Moderate, 8<<20, 12)

	// Service: reads at about 30 MB/s, so the relay's pipeline stays full.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	received := make(chan []byte, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var got bytes.Buffer
		for {
			_, err := io.CopyN(&got, conn, 64<<10)
			if err != nil {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		received <- got.Bytes()
	}()

	reg := obs.NewRegistry()
	exit, err := tunnel.ListenExit(context.Background(), "127.0.0.1:0", ln.Addr().String(), tunnel.Config{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer exit.Close()
	entryCfg := tunnel.Config{
		Static: true, StaticLevel: 1,
		ShutdownGrace: 20 * time.Second, Obs: reg.Scope("tunnel"), Logf: t.Logf,
	}
	entry, err := tunnel.ListenEntry(context.Background(), "127.0.0.1:0", exit.Addr().String(), entryCfg)
	if err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", entry.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go func() {
		conn.Write(upload)
		conn.(*net.TCPConn).CloseWrite()
	}()

	// Close once the relay is well into the upload and far from done.
	waitFor(t, "the upload to be under way", func() bool {
		accepted, _ := reg.Get("tunnel.stream.writer.app_bytes").(*obs.Counter)
		return accepted != nil && accepted.Value() >= 1<<20
	})
	start := time.Now()
	entry.Close()
	if elapsed := time.Since(start); elapsed > 19*time.Second {
		t.Fatalf("Close took %v: force-close fired instead of graceful completion", elapsed)
	}

	select {
	case got := <-received:
		if !bytes.Equal(got, upload) {
			t.Fatalf("drain lost part of the upload: service got %d bytes, want %d", len(got), len(upload))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("service never saw the end of the upload")
	}
}

// waitNewDialsFail asserts that addr refuses (or immediately closes) new
// connections — the endpoint has stopped accepting.
func waitNewDialsFail(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			return // refused: drain confirmed
		}
		// The kernel may still complete the handshake from the backlog;
		// service must nevertheless never begin.
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := conn.Read(make([]byte, 1)); err == nil {
			conn.Close()
			t.Fatal("endpoint served a connection dialed during drain")
		}
		conn.Close()
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("dials kept succeeding after drain began")
}

// TestDrainShedsQueuedConns verifies that Close unparks connections waiting
// in the accept queue and sheds them instead of serving them.
func TestDrainShedsQueuedConns(t *testing.T) {
	leakcheck.Check(t)
	h := startScaleHarness(t, tunnel.Config{MaxConns: 1, AcceptQueue: 2, ShutdownGrace: 500 * time.Millisecond})

	release := holdConn(t, h.addr)
	defer release()
	waitFor(t, "slot busy", func() bool { return h.counter(t, "tunnel.conns.accepted") == 1 })

	queued, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer queued.Close()
	waitFor(t, "connection queued", func() bool { return h.gauge(t, "tunnel.conns.queued") == 1 })

	start := time.Now()
	if err := h.entry.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("drain took %v", elapsed)
	}

	// The queued connection was shed, never served.
	if shed := h.counter(t, "tunnel.conns.shed"); shed < 1 {
		t.Fatalf("shed = %d, want >= 1 (the queued conn)", shed)
	}
	if accepted := h.counter(t, "tunnel.conns.accepted"); accepted != 1 {
		t.Fatalf("accepted = %d, want 1", accepted)
	}
	queued.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := queued.Read(make([]byte, 1)); err == nil {
		t.Fatalf("shed queued connection delivered %d bytes", n)
	}
}

// TestDrainForceClosesStalledRelayUnderFaults injects a wire stall
// (internal/faultio) so an in-flight relay can never finish, then verifies
// Close force-closes it once ShutdownGrace expires — bounded teardown, no
// leaked goroutines — while shedding everything that arrives mid-drain.
func TestDrainForceClosesStalledRelayUnderFaults(t *testing.T) {
	leakcheck.Check(t)
	response := corpus.Generate(corpus.Low, 1<<20, 17)
	target, _ := startRequestResponse(t, response)

	reg := obs.NewRegistry()
	exitCfg := tunnel.Config{
		Static: true, StaticLevel: 1,
		Logf: t.Logf,
		Obs:  reg.Scope("tunnel"),
		// Stall the wire after 32 KB: the response jams mid-relay forever.
		WrapWire: func(c net.Conn) net.Conn {
			return faultio.WrapConn(c, faultio.Config{Seed: 23, StallAfter: 32 << 10})
		},
		ShutdownGrace: 300 * time.Millisecond,
		MaxConns:      4,
	}
	exit, err := tunnel.ListenExit(context.Background(), "127.0.0.1:0", target, exitCfg)
	if err != nil {
		t.Fatal(err)
	}
	entry, err := tunnel.ListenEntry(context.Background(), "127.0.0.1:0", exit.Addr().String(), tunnel.Config{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer entry.Close()

	conn, err := net.Dial("tcp", entry.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte("request"))
	conn.(*net.TCPConn).CloseWrite()

	active, _ := reg.Get("tunnel.conns.active").(*obs.Gauge)
	waitFor(t, "stalled relay active", func() bool { return active.Value() >= 1 })
	// Give the stall time to trip (the response hits the 32 KB threshold).
	time.Sleep(100 * time.Millisecond)

	start := time.Now()
	if err := exit.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Close of a stalled relay took %v, want ~ShutdownGrace", elapsed)
	}
}

// TestGoroutineBoundUnderBurst fires far more concurrent clients than
// MaxConns+AcceptQueue and asserts the endpoint's goroutine count stays
// bounded by the pool, not the arrival rate.
func TestGoroutineBoundUnderBurst(t *testing.T) {
	leakcheck.Check(t)
	const (
		maxConns = 4
		queue    = 4
		clients  = 80
	)
	h := startScaleHarness(t, tunnel.Config{MaxConns: maxConns, AcceptQueue: queue})

	baseline := runtime.NumGoroutine()
	var peak int
	stopSampling := make(chan struct{})
	var samplerDone sync.WaitGroup
	samplerDone.Add(1)
	go func() {
		defer samplerDone.Done()
		for {
			select {
			case <-stopSampling:
				return
			default:
			}
			if n := runtime.NumGoroutine(); n > peak {
				peak = n
			}
			time.Sleep(time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload := corpus.Generate(corpus.Kind(i%3), 8<<10, uint64(i))
			conn, err := net.Dial("tcp", h.addr)
			if err != nil {
				return // kernel backlog overflow under burst: fine
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(15 * time.Second))
			go func() {
				conn.Write(payload)
				conn.(*net.TCPConn).CloseWrite()
			}()
			io.Copy(io.Discard, conn)
		}(i)
	}
	wg.Wait()
	close(stopSampling)
	samplerDone.Wait()

	// Every served connection costs a handful of goroutines (serve + two
	// relay directions + shutdown watchdog, plus the compress direction's
	// flusher where the endpoint has encode workers) on each of the two
	// endpoints, and each client burns up to two itself (dialer + writer).
	// The encode workers are a per-endpoint constant, started with the
	// harness and so already in the baseline. Beyond that, growth must not
	// track the 80-client burst: parked queue entries cost exactly one
	// goroutine each.
	served := maxConns + queue
	bound := baseline + clients*2 + served*10 + 24
	if peak > bound {
		t.Fatalf("goroutine peak %d exceeds bound %d (baseline %d): pool not bounding concurrency", peak, bound, baseline)
	}

	accepted := h.counter(t, "tunnel.conns.accepted")
	shed := h.counter(t, "tunnel.conns.shed")
	if accepted+shed == 0 {
		t.Fatal("no admissions recorded")
	}
	if shed == 0 {
		t.Logf("burst never overflowed the queue (accepted=%d); bound still verified", accepted)
	}
	t.Logf("burst: accepted=%d shed=%d peak_goroutines=%d (baseline %d)", accepted, shed, peak, baseline)
}

// TestEncodeWorkersArePerEndpoint pins who owns which goroutine of the
// compress path: the encode workers belong to the endpoint (GOMAXPROCS of
// them, however many connections it serves; none at all on one CPU, where
// the relay encodes inline), and a connection adds one flusher per compress
// direction. Close takes all of them down (leakcheck).
func TestEncodeWorkersArePerEndpoint(t *testing.T) {
	leakcheck.Check(t)
	count := func(fn string) int {
		buf := make([]byte, 1<<20)
		return strings.Count(string(buf[:runtime.Stack(buf, true)]), fn+"(")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 3} {
		runtime.GOMAXPROCS(procs)
		echo := startEcho(t)
		exit, err := tunnel.ListenExit(context.Background(), "127.0.0.1:0", echo, tunnel.Config{})
		if err != nil {
			t.Fatal(err)
		}
		entry, err := tunnel.ListenEntry(context.Background(), "127.0.0.1:0", exit.Addr().String(), tunnel.Config{})
		if err != nil {
			t.Fatal(err)
		}
		wantWorkers, flushersPerConn := 2*procs, 2 // two endpoints; entry and exit each compress one direction
		if procs == 1 {
			wantWorkers, flushersPerConn = 0, 0
		}
		var conns []net.Conn
		for n := 1; n <= 3; n++ {
			conn, err := net.Dial("tcp", entry.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			conns = append(conns, conn)
			// One echoed byte proves both relays of this connection are up.
			if _, err := conn.Write([]byte{'x'}); err != nil {
				t.Fatal(err)
			}
			if _, err := io.ReadFull(conn, make([]byte, 1)); err != nil {
				t.Fatal(err)
			}
			if got := count("stream.(*EncodePool).worker"); got != wantWorkers {
				t.Errorf("GOMAXPROCS=%d, %d connection(s): %d encode workers, want %d", procs, n, got, wantWorkers)
			}
			if got := count("stream.(*pipeline).flusher"); got != n*flushersPerConn {
				t.Errorf("GOMAXPROCS=%d, %d connection(s): %d flushers, want %d", procs, n, got, n*flushersPerConn)
			}
		}
		for _, conn := range conns {
			conn.Close()
		}
		entry.Close()
		exit.Close()
	}
}
