package tunnel_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adaptio/internal/block"
	"adaptio/internal/corpus"
	"adaptio/internal/faultio"
	"adaptio/internal/faultio/leakcheck"
	"adaptio/internal/stream"
	"adaptio/internal/tunnel"
)

// startDecodingPeer stands in for the exit endpoint: it decodes every wire
// connection it is sent and reports what came out, so a test sees exactly
// which bytes one entry connection delivered.
func startDecodingPeer(t *testing.T) (addr string, decoded <-chan []byte) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan []byte, 4) // more than the connections any caller makes
	var wg sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				r, err := stream.NewReader(conn)
				if err != nil {
					t.Error(err)
					return
				}
				defer r.Close()
				data, _ := io.ReadAll(r) // a torn-down connection ends mid-frame
				out <- data
			}()
		}
	}()
	return ln.Addr().String(), out
}

// TestSlowPeerBoundsMemory stalls the wire of one connection for good while
// its client keeps sending. The pump must stop reading once its writer's
// share of blocks is in flight (so the tunnel's memory stays bounded and the
// client is back-pressured through TCP), a second connection on the same
// endpoint must relay at full speed meanwhile — a flusher blocked on a slow
// wire may not hold a shared encode worker — and the stalled direction must
// still idle out with ErrIdleTimeout and give every buffer and goroutine back.
func TestSlowPeerBoundsMemory(t *testing.T) {
	leakcheck.Check(t)
	const (
		// stream's per-writer bound on a shared pool (sharedInFlight); the
		// inline writer at GOMAXPROCS=1 holds one block and one frame.
		inFlight = 8
		// One connection's arena buffers: per block in flight the block or
		// its frame, both while a worker encodes it; the pending block; the
		// decompress path's two; the decoding peer's two.
		perConn     = 2*inFlight + 1 + 2 + 2
		stallAfter  = 64 << 10
		idleTimeout = 2 * time.Second
	)
	gets, releases, _ := block.Stats()
	baseline := gets - releases

	peer, decoded := startDecodingPeer(t)
	collector := &statsCollector{}
	var wires atomic.Int32
	entry, err := tunnel.ListenEntry(context.Background(), "127.0.0.1:0", peer, tunnel.Config{
		Static: true, StaticLevel: 1,
		IdleTimeout: idleTimeout,
		OnDone:      collector.add,
		Logf:        t.Logf,
		WrapWire: func(c net.Conn) net.Conn {
			if wires.Add(1) > 1 {
				return c
			}
			return faultio.WrapConn(c, faultio.Config{Seed: 1, StallAfter: stallAfter})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer entry.Close()

	var peak atomic.Int64
	stopSampling := make(chan struct{})
	var sampler sync.WaitGroup
	defer sampler.Wait()
	defer close(stopSampling)
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-stopSampling:
				return
			default:
			}
			gets, releases, _ := block.Stats()
			if n := gets - releases - baseline; n > peak.Load() {
				peak.Store(n)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	// The stalled connection: far more than any bound lets through.
	flood := corpus.Generate(corpus.Moderate, 16<<20, 21)
	stalled, err := net.Dial("tcp", entry.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	var clients sync.WaitGroup
	clients.Add(1)
	go func() {
		defer clients.Done()
		stalled.Write(flood) // blocks in TCP, fails when the relay tears down
	}()
	stalledSince := time.Now()
	waitFor(t, "the first connection's wire", func() bool { return wires.Load() == 1 })
	time.Sleep(idleTimeout / 8) // let the pump run into its bound
	if n := peak.Load(); n > perConn {
		t.Errorf("stalled connection holds %d arena buffers, want at most %d", n, perConn)
	}

	// The healthy connection, while the first is still stalled.
	payload := corpus.Generate(corpus.Moderate, 4<<20, 22)
	healthy, err := net.Dial("tcp", entry.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	if _, err := healthy.Write(payload); err != nil {
		t.Fatal(err)
	}
	healthy.(*net.TCPConn).CloseWrite()
	select {
	case got := <-decoded:
		if !bytes.Equal(got, payload) {
			t.Fatalf("healthy connection delivered %d bytes, want the %d sent", len(got), len(payload))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("healthy connection never finished next to a stalled one")
	}
	for _, s := range collector.snapshot() {
		if s.Err != nil {
			// It must have relayed beside the stall, not after it.
			t.Fatalf("after %v the stalled direction had already failed: %v", time.Since(stalledSince), s.Err)
		}
	}

	waitFor(t, "both compress directions to report", func() bool { return len(collector.snapshot()) == 2 })
	stats := collector.snapshot()
	// The wire write times out one IdleTimeout into the stall and the pump
	// must give up there and then; it used to mistake the writer's timeout
	// for its own flush deadline and spin for a second IdleTimeout.
	if elapsed := time.Since(stalledSince); elapsed > 2*idleTimeout-250*time.Millisecond {
		t.Errorf("stalled direction took %v to tear down, want about IdleTimeout (%v)", elapsed, idleTimeout)
	}
	if n := peak.Load(); n > 2*perConn {
		t.Errorf("two connections held %d arena buffers, want at most %d", n, 2*perConn)
	}
	var sawStall bool
	for _, s := range stats {
		if s.Err == nil {
			continue
		}
		sawStall = true
		if !errors.Is(s.Err, tunnel.ErrIdleTimeout) {
			t.Errorf("stalled direction failed with %v, want ErrIdleTimeout", s.Err)
		}
		// What the pump accepted is what reached the wire plus its bound:
		// it stopped reading instead of buffering the flood.
		if limit := (s.Stats.Blocks + inFlight + 1) * stream.DefaultBlockSize; s.Stats.AppBytes > limit {
			t.Errorf("pump accepted %d bytes behind a stalled wire (%d frames written), want at most %d",
				s.Stats.AppBytes, s.Stats.Blocks, limit)
		}
	}
	if !sawStall {
		t.Errorf("no direction reported the stall: %+v", stats)
	}
	t.Logf("peak arena buffers in use: %d (bound %d)", peak.Load(), 2*perConn)

	stalled.Close()
	clients.Wait()
	entry.Close()
	waitFor(t, "every arena buffer to come back", func() bool {
		gets, releases, _ := block.Stats()
		return gets-releases == baseline
	})
}
