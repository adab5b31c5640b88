package tunnel_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adaptio/internal/coord"
	"adaptio/internal/core"
	"adaptio/internal/corpus"
	"adaptio/internal/faultio"
	"adaptio/internal/faultio/leakcheck"
	"adaptio/internal/obs"
	"adaptio/internal/tunnel"
)

// coordPolicy is what actunnel -coord hands the tunnel: one coordinated
// stream per call.
func coordPolicy(c *coord.Coordinator, sc coord.StreamConfig) func() core.Policy {
	return func() core.Policy { return c.Register(sc) }
}

// TestCoordRegistersAndDetachesStreams proves the Policy seam carries the
// fleet coordinator: every served connection's compress path registers with
// the coordinator while the relay runs (coord.streams.active rises) and
// detaches when the connection closes (the gauge returns to zero, and the
// total counter remembers every registration).
func TestCoordRegistersAndDetachesStreams(t *testing.T) {
	leakcheck.Check(t)
	reg := obs.NewRegistry()
	c := coord.MustNew(coord.Config{
		Levels: 4,
		Obs:    reg.Scope("coord"),
	})
	h := startScaleHarness(t, tunnel.Config{
		Policy: coordPolicy(c, coord.StreamConfig{Weight: 2, Tenant: "entry"}),
	})

	coordScope := reg.Scope("coord")
	const conns = 3
	release := make([]func(), conns)
	for i := range release {
		release[i] = holdConn(t, h.addr)
	}
	// Entry relays register one coordinated stream per connection's
	// compress path. (The exit endpoint has no policy configured, so
	// exactly the entry streams count.)
	active := coordScope.Gauge("streams.active")
	waitFor(t, "streams registered", func() bool { return active.Value() == conns })
	for _, r := range release {
		r()
	}
	waitFor(t, "streams detached", func() bool { return active.Value() == 0 })
	if got := coordScope.Counter("streams.total").Value(); got != conns {
		t.Fatalf("coord.streams.total = %d, want %d", got, conns)
	}
}

// TestCoordStreamRoundTrip sends real data through a coordinated tunnel and
// verifies it arrives intact: the coordinator is a level-selection policy,
// never a correctness hazard.
func TestCoordStreamRoundTrip(t *testing.T) {
	leakcheck.Check(t)
	c := coord.MustNew(coord.Config{Levels: 4})
	h := startScaleHarness(t, tunnel.Config{Policy: coordPolicy(c, coord.StreamConfig{})})

	conn, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload := corpus.Generate(corpus.Moderate, 512<<10, 77)
	done := make(chan error, 1)
	go func() {
		_, werr := conn.Write(payload)
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
		done <- werr
	}()
	got, err := io.ReadAll(io.LimitReader(conn, int64(len(payload))))
	if err != nil {
		t.Fatal(err)
	}
	if werr := <-done; werr != nil {
		t.Fatal(werr)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("echo mismatch: got %d bytes", len(got))
	}
}

// policyLedger is a Config.Policy that counts its calls and the Detach calls
// of the policies it handed out.
type policyLedger struct{ calls, detaches atomic.Int64 }

type ledgerPolicy struct {
	core.Policy
	ledger *policyLedger
}

func (p ledgerPolicy) Detach() { p.ledger.detaches.Add(1) }

func (l *policyLedger) policy() core.Policy {
	l.calls.Add(1)
	return ledgerPolicy{Policy: core.Static(1), ledger: l}
}

// TestPolicyCalledAndDetachedOncePerServedConn pins the seam's contract: the
// endpoint calls Config.Policy exactly once per connection it serves, when
// the compress path starts, and the policy's Detach exactly once when that
// path ends — a peer reset mid-relay included. A connection that is shed or
// still parked in the accept queue never reaches Policy: it must not hold a
// coordinator share.
func TestPolicyCalledAndDetachedOncePerServedConn(t *testing.T) {
	leakcheck.Check(t)
	t.Run("admission", func(t *testing.T) {
		var l policyLedger
		h := startScaleHarness(t, tunnel.Config{MaxConns: 2, AcceptQueue: 1, Policy: l.policy})
		r1 := holdConn(t, h.addr)
		r2 := holdConn(t, h.addr)
		waitFor(t, "two compress paths started", func() bool { return l.calls.Load() == 2 })

		queued, err := net.Dial("tcp", h.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer queued.Close()
		waitFor(t, "connection queued", func() bool { return h.gauge(t, "tunnel.conns.queued") == 1 })
		shed, err := net.Dial("tcp", h.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer shed.Close()
		waitFor(t, "connection shed", func() bool { return h.counter(t, "tunnel.conns.shed") == 1 })
		if calls, detaches := l.calls.Load(), l.detaches.Load(); calls != 2 || detaches != 0 {
			t.Fatalf("with one connection parked and one shed: %d Policy calls, %d detaches, want 2 and 0", calls, detaches)
		}

		// A freed slot serves the parked connection: its one call comes now.
		r1()
		waitFor(t, "parked connection served", func() bool { return l.calls.Load() == 3 })
		r2()
		queued.Close()
		waitFor(t, "every compress path ended", func() bool { return l.detaches.Load() == 3 })
		if calls := l.calls.Load(); calls != 3 {
			t.Fatalf("%d Policy calls for 3 served connections", calls)
		}
	})
	t.Run("peer reset", func(t *testing.T) {
		var l policyLedger
		var failed atomic.Bool
		h := startScaleHarness(t, tunnel.Config{
			Policy: l.policy,
			OnDone: func(s tunnel.ConnStats) { failed.Store(s.Err != nil) }, // one compress path, one report
			WrapWire: func(c net.Conn) net.Conn {
				return faultio.WrapConn(c, faultio.Config{Seed: 5, ResetAfter: 100 << 10})
			},
		})
		conn, err := net.Dial("tcp", h.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		// The wire resets 100 KB into a 1 MB barely-compressible upload; the
		// write may fail once the relay tears the connection down.
		go func() {
			conn.Write(corpus.Generate(corpus.Low, 1<<20, 9))
			conn.(*net.TCPConn).CloseWrite()
		}()
		waitFor(t, "detach after the reset", func() bool { return l.detaches.Load() == 1 })
		if calls := l.calls.Load(); calls != 1 || !failed.Load() {
			t.Fatalf("%d Policy calls for one connection (compress path failed: %v), want 1 and a failure", calls, failed.Load())
		}
	})
}

// TestCompressPathThatCannotStartEndsTheConnection: a policy that starts
// outside the ladder is refused by stream.NewWriter inside the compress
// path. The connection must end — the client sees EOF, the endpoint logs the
// writer's own error — instead of hanging with both peers waiting for
// frames.
func TestCompressPathThatCannotStartEndsTheConnection(t *testing.T) {
	leakcheck.Check(t)
	var (
		mu   sync.Mutex
		logs []string
	)
	cfg := tunnel.Config{
		Policy: func() core.Policy { return core.Static(9) },
		Logf: func(format string, args ...any) {
			mu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	}
	exit, err := tunnel.ListenExit(context.Background(), "127.0.0.1:0", startEcho(t), tunnel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer exit.Close()
	entry, err := tunnel.ListenEntry(context.Background(), "127.0.0.1:0", exit.Addr().String(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer entry.Close()

	conn, err := net.Dial("tcp", entry.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("never relayed")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if got, err := io.ReadAll(conn); err != nil || len(got) != 0 {
		t.Fatalf("client read %d bytes, err %v; want a clean EOF", len(got), err)
	}
	waitFor(t, "the relay to report the writer's error", func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, l := range logs {
			if strings.Contains(l, "compress path") && strings.Contains(l, "starting level 9") {
				return true
			}
		}
		return false
	})
}
