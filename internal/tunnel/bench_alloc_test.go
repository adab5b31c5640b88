package tunnel_test

import (
	"context"
	"io"
	"net"
	"testing"

	"adaptio/internal/block/blocktest"
	"adaptio/internal/corpus"
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
