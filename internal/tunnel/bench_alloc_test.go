package tunnel_test

import (
	"context"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"adaptio/internal/block/blocktest"
	"adaptio/internal/corpus"
	"adaptio/internal/obs"
	"adaptio/internal/stream"
	"adaptio/internal/tunnel"
)

// echoTunnel builds echo <- exit <- entry with no logging or stats hooks and
// returns the entry's address.
func echoTunnel(tb testing.TB, cfg tunnel.Config) string {
	tb.Helper()
	exit, err := tunnel.ListenExit(context.Background(), "127.0.0.1:0", startEcho(tb), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { exit.Close() })
	entry, err := tunnel.ListenEntry(context.Background(), "127.0.0.1:0", exit.Addr().String(), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { entry.Close() })
	return entry.Addr().String()
}

// echoRoundTrip returns the per-connection operation that the allocation
// benchmark, BenchmarkRelayNoLevel and the budget test repeat: dial the
// entry, send payload, half-close, read the echo back, close. Every op pays
// for two relays (four streams and their buffers), which is what the block
// pool amortizes under connection churn.
func echoRoundTrip(tb testing.TB, cfg tunnel.Config, payload []byte) func() {
	tb.Helper()
	addr := echoTunnel(tb, cfg)
	echo := make([]byte, len(payload))
	return func() {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			tb.Fatal(err)
		}
		defer conn.Close()
		done := make(chan error, 1)
		go func() {
			_, err := io.ReadFull(conn, echo)
			done <- err
		}()
		if _, err := conn.Write(payload); err != nil {
			tb.Fatal(err)
		}
		conn.(*net.TCPConn).CloseWrite()
		if err := <-done; err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkPingPong is the closed-loop cost of a small message: one 1 KiB
// message out and back per op on one held-open connection through entry and
// exit at the default config. echoRoundTrip half-closes, so its partial
// blocks leave at EOF; here each message is a partial block and pays the
// coalescing flush rule, so ns/op is a round trip's flush holds plus the
// relay. bench/'s interactive-echo judges the same path in paired runs.
func BenchmarkPingPong(b *testing.B) {
	conn, err := net.Dial("tcp", echoTunnel(b, tunnel.Config{}))
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	msg := corpus.Generate(corpus.Moderate, 1<<10, 13)
	echo := make([]byte, len(msg))
	blocktest.BenchAllocs(b, len(msg), func() {
		if _, err := conn.Write(msg); err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadFull(conn, echo); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkFirstExchange is what a short request-driven connection pays:
// per op, dial the entry, send one 1 KiB message, read its echo without
// half-closing, close. The message is each compress path's first partial
// block, so ns/op is connection set-up plus the relay; a hold for the first
// frame would add a FlushInterval at each endpoint. echoRoundTrip
// half-closes, so its partial blocks leave at EOF and never show this.
func BenchmarkFirstExchange(b *testing.B) {
	addr := echoTunnel(b, tunnel.Config{})
	msg := corpus.Generate(corpus.Moderate, 1<<10, 13)
	echo := make([]byte, len(msg))
	blocktest.BenchAllocs(b, len(msg), func() {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			b.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(msg); err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadFull(conn, echo); err != nil {
			b.Fatal(err)
		}
	})
}

// allocTunnelRoundTrip is the per-connection cost of the tunnel data plane:
// one 128 KB echo at static LIGHT.
func allocTunnelRoundTrip(tb testing.TB) (op func(), opBytes int) {
	payload := corpus.Generate(corpus.Moderate, 128<<10, 11)
	return echoRoundTrip(tb, tunnel.Config{Static: true, StaticLevel: stream.LevelLight}, payload), len(payload)
}

func BenchmarkAllocTunnelRoundTrip(b *testing.B) {
	op, opBytes := allocTunnelRoundTrip(b)
	blocktest.BenchAllocs(b, opBytes, op)
}

// TestAllocBudgetTunnelRoundTrip holds BenchmarkAllocTunnelRoundTrip's
// operation to its ceilings (docs/performance.md, "How performance is
// judged"). Of the ~185 allocations about 90 are package net's (three dials,
// two accepts), 70 the two stream.Writers' (mostly obs registration), 20 the
// two relay() calls; none is a block buffer. One CPU reads 4 fewer: the
// compress path runs inline, without a pipeline per direction.
func TestAllocBudgetTunnelRoundTrip(t *testing.T) {
	op, _ := allocTunnelRoundTrip(t)
	blocktest.AllocBudget(t, 100, 212, 64<<10, op)
}

// BenchmarkRelayNoLevel measures the framed zero-copy path, the only
// NO-level relay timing anywhere: 1 MB out and back per op as stored-raw
// vectored frames out of ReadDirect on the compress side and CRC-verified
// direct delivery on the decompress side. MB/s counts both directions. Its
// deterministic half — zero user-space copies — is
// TestRelayCopyAccountingMetrics; its timed half has no floor (bench/'s
// tunnel.relay.mb_s judges the relay in paired runs).
func BenchmarkRelayNoLevel(b *testing.B) {
	payload := corpus.Generate(corpus.Moderate, 1<<20, 1)
	blocktest.BenchAllocs(b, 2*len(payload), echoRoundTrip(b, tunnel.Config{Static: true, StaticLevel: stream.LevelNo}, payload))
}

// connHeapKB is what an open interactive connection holds: conns
// connections through an echo tunnel at its defaults, each left open after
// rounds round trips of a 2 KiB message, against the heap before the first
// dial. It returns the difference in HeapInuse per connection, in KB, both
// readings taken after two GCs, the first of which moves the arena's
// sync.Pool caches to their victim slot and the second drops them, so only
// what the connections hold is counted: both endpoints' relays, stream
// writers and readers, and this side's sockets. It returns once both
// endpoints have torn the connections down, so calls do not overlap.
func connHeapKB(tb testing.TB, conns, rounds int) float64 {
	tb.Helper()
	reg := obs.NewRegistry()
	addr := echoTunnel(tb, tunnel.Config{Obs: reg.Scope("tunnel")})
	active := reg.Get("tunnel.conns.active").(*obs.Gauge)
	msg := corpus.Generate(corpus.Moderate, 2<<10, 17)
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	before := heap()
	open := make([]net.Conn, 0, conns)
	defer func() {
		for _, conn := range open {
			conn.Close()
		}
		for deadline := time.Now().Add(10 * time.Second); active.Value() > 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				tb.Fatalf("%d connections still open 10 s after the clients closed", active.Value())
			}
		}
	}()
	errs := make(chan error, conns)
	for range conns {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			tb.Fatal(err)
		}
		open = append(open, conn)
		go func() {
			echo := make([]byte, len(msg))
			for range rounds {
				if _, err := conn.Write(msg); err != nil {
					errs <- err
					return
				}
				if _, err := io.ReadFull(conn, echo); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for range conns {
		if err := <-errs; err != nil {
			tb.Fatal(err)
		}
	}
	after := heap()
	return (float64(after) - float64(before)) / float64(conns) / 1024
}

// BenchmarkTunnelConnHeap reports the heap an open interactive connection
// holds across entry and exit (connHeapKB: 20 connections of 20 round trips
// each). TestConnHeapBudget holds it to its ceiling.
func BenchmarkTunnelConnHeap(b *testing.B) {
	var kb float64
	for range b.N {
		kb = connHeapKB(b, 20, 20)
	}
	b.ReportMetric(kb, "KB/conn")
}

// TestConnHeapBudget: an interactive connection holds at most 160 KB of
// heap across both endpoints. A writer's pending block follows its
// traffic, so one that moves 2 KiB messages holds the arena's 4 KB class,
// not a full block's 160 KB; with a full block per compress path the two
// endpoints held about 390 KB per connection. Heap readings under the race
// detector's shadow memory say nothing, so it skips there.
func TestConnHeapBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("heap readings are meaningless under the race detector")
	}
	const budgetKB = 160
	kb := connHeapKB(t, 20, 20)
	if kb > budgetKB {
		t.Fatalf("an interactive connection holds %.0f KB of heap, want at most %d", kb, budgetKB)
	}
	t.Logf("%.0f KB of heap per interactive connection", kb)
}
