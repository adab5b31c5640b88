package stream_test

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adaptio/internal/corpus"
	"adaptio/internal/ratelimit"
	"adaptio/internal/stream"
)

// These integration tests run the complete production path with real bytes:
// corpus data -> adaptive stream.Writer -> rate-limited real TCP connection
// -> stream.Reader. The rate limiter emulates the scarce shared-NIC
// bandwidth of a cloud VM; on compressible data the decision model must
// engage compression and push the application rate past the wire cap (the
// paper's central effect), while on incompressible data it must not burn
// CPU for nothing.

// runRealTransfer streams volume bytes of kind through a writer configured by
// cfg over throttled loopback TCP and returns the writer stats, the received
// bytes count and the elapsed time.
func runRealTransfer(t *testing.T, kind corpus.Kind, wireMBps float64, volume int64, cfg stream.WriterConfig) (stream.Stats, int64, time.Duration) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	var (
		wg       sync.WaitGroup
		received int64
		recvErr  error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := ln.Accept()
		if err != nil {
			recvErr = err
			return
		}
		defer conn.Close()
		r, err := stream.NewReader(conn)
		if err != nil {
			recvErr = err
			return
		}
		received, recvErr = io.Copy(io.Discard, r)
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	limited, err := ratelimit.NewWriter(conn, wireMBps*1e6, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	w, err := stream.NewWriter(limited, cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := io.CopyN(w, corpus.NewFileReader(kind, 1), volume); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	conn.Close() // EOF to the receiver
	wg.Wait()
	if recvErr != nil {
		t.Fatalf("receiver: %v", recvErr)
	}
	return w.Stats(), received, elapsed
}

func TestRealTCPAdaptiveEngagesOnCompressibleData(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time transfer")
	}
	const wireMBps = 10.0
	stats, received, elapsed := runRealTransfer(t, corpus.High, wireMBps, 24<<20, stream.WriterConfig{Window: 60 * time.Millisecond})
	if received != stats.AppBytes {
		t.Fatalf("received %d of %d app bytes", received, stats.AppBytes)
	}
	appRate := float64(stats.AppBytes) / 1e6 / elapsed.Seconds()
	// Uncompressed, 24 MB over a 10 MB/s wire takes >= 2.4 s. With the
	// scheme engaging LIGHT (ratio ~0.18 on HIGH data) the application
	// rate must clear the wire cap decisively. Under the race detector
	// compression itself is CPU-bound below the cap, so only correctness
	// is checked there.
	if !raceEnabled {
		if appRate < 1.5*wireMBps {
			t.Fatalf("app rate %.1f MB/s did not clear the %v MB/s wire cap", appRate, wireMBps)
		}
		if ratio := float64(stats.WireBytes) / float64(stats.AppBytes); ratio > 0.5 {
			t.Fatalf("wire ratio %.2f: compression never engaged", ratio)
		}
	}
	compressed := int64(0)
	for lvl, blocks := range stats.BlocksPerLevel {
		if lvl > 0 {
			compressed += blocks
		}
	}
	if compressed == 0 {
		t.Fatal("no blocks were compressed")
	}
}

func TestRealTCPAdaptiveBacksOffOnIncompressibleData(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time transfer")
	}
	const wireMBps = 25.0
	const volume = 16 << 20
	adaptive := func() time.Duration {
		stats, received, elapsed := runRealTransfer(t, corpus.Low, wireMBps, volume, stream.WriterConfig{Window: 60 * time.Millisecond})
		if received != stats.AppBytes {
			t.Fatalf("received %d of %d app bytes", received, stats.AppBytes)
		}
		// On JPEG-like data compression saves ~5%; whatever mix of levels the
		// prober visits, the wire volume must stay close to the app volume
		// (no catastrophic HEAVY excursions) and the stream must survive
		// whatever probing happened.
		ratio := float64(stats.WireBytes) / float64(stats.AppBytes)
		if ratio < 0.85 || ratio > 1.02 {
			t.Fatalf("wire ratio %.3f implausible for incompressible data", ratio)
		}
		if stats.BlocksPerLevel[3] > stats.Blocks/4 {
			t.Fatalf("HEAVY used for %d of %d blocks on incompressible data",
				stats.BlocksPerLevel[3], stats.Blocks)
		}
		return elapsed
	}
	if raceEnabled {
		// The probes themselves are CPU-bound under the race detector, as in
		// the test above: only the deterministic half is checked.
		adaptive()
		return
	}
	// Nothing helps on incompressible data, so adapting must cost little:
	// the transfer finishes within 1.35x of the same bytes sent uncompressed
	// through the same limiter. Both sides of the comparison are measured,
	// back to back, because the arithmetic volume/rate is not what a shared
	// host delivers; a pair that misses is retried, since one stall in either
	// half decides it.
	const pairs = 3
	for pair := 1; ; pair++ {
		_, _, none := runRealTransfer(t, corpus.Low, wireMBps, volume, stream.WriterConfig{Static: true, StaticLevel: stream.LevelNo})
		elapsed := adaptive()
		if elapsed.Seconds() <= 1.35*none.Seconds() {
			return
		}
		if pair == pairs {
			t.Fatalf("pair %d of %d: took %.2f s, more than 1.35x the %.2f s of the uncompressed transfer", pair, pairs, elapsed.Seconds(), none.Seconds())
		}
		t.Logf("pair %d of %d: took %.2f s against %.2f s uncompressed, retrying", pair, pairs, elapsed.Seconds(), none.Seconds())
	}
}

// TestTwoAdaptiveStreamsShareOneWire models two co-located tenants who both
// run the adaptive scheme over one shared, capped NIC: both must make
// progress, both must engage compression on compressible data, and their
// combined application throughput must exceed the raw wire capacity — the
// cooperative version of the paper's shared-I/O scenario.
func TestTwoAdaptiveStreamsShareOneWire(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("real-time transfer")
	}
	const wireMBps = 12.0
	const volume = 10 << 20

	// One shared rate limiter = the host NIC; each tenant gets its own
	// TCP connection through it.
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
				r, err := stream.NewReader(conn)
				if err != nil {
					return
				}
				io.Copy(io.Discard, r)
			}()
		}
	}()

	// The shared limiter is the host NIC: every tenant's wire bytes pay
	// its tokens before reaching their own connection. ratelimit.Writer
	// is concurrency-safe, so it serializes the contending tenants just
	// like a physical link would.
	sharedNIC, err := ratelimit.NewWriter(io.Discard, wireMBps*1e6, 64<<10)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	results := make([]stream.Stats, 2)
	elapsed := make([]time.Duration, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer conn.Close()
			// Wire writes pay shared tokens first (the contended NIC),
			// then go to the real connection.
			tenantWire := writerFunc(func(p []byte) (int, error) {
				if _, err := sharedNIC.Write(p); err != nil {
					return 0, err
				}
				return conn.Write(p)
			})
			w, err := stream.NewWriter(tenantWire, stream.WriterConfig{Window: 50 * time.Millisecond})
			if err != nil {
				t.Errorf("writer: %v", err)
				return
			}
			start := time.Now()
			if _, err := io.CopyN(w, corpus.NewFileReader(corpus.High, uint64(i+1)), volume); err != nil {
				t.Errorf("copy: %v", err)
				return
			}
			if err := w.Close(); err != nil {
				t.Errorf("close: %v", err)
				return
			}
			elapsed[i] = time.Since(start)
			results[i] = w.Stats()
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	var combinedApp float64
	for i, st := range results {
		rate := float64(st.AppBytes) / 1e6 / elapsed[i].Seconds()
		combinedApp += rate
		t.Logf("tenant %d: %.1f MB/s app, ratio %.3f", i, rate, float64(st.WireBytes)/float64(st.AppBytes))
		if st.AppBytes != volume {
			t.Errorf("tenant %d moved %d of %d bytes", i, st.AppBytes, volume)
		}
		if ratio := float64(st.WireBytes) / float64(st.AppBytes); ratio > 0.6 {
			t.Errorf("tenant %d never compressed (ratio %.2f)", i, ratio)
		}
	}
	if combinedApp < 1.5*wireMBps {
		t.Errorf("combined app rate %.1f MB/s does not exceed the %.0f MB/s shared wire", combinedApp, wireMBps)
	}
}

// writerFunc adapts a function to io.Writer.
type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestRealTCPContentionAppearsMidStream(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time transfer")
	}
	// Start with a fat wire (compression pointless), then cut the rate
	// 8x mid-stream (compression pays): the scheme must switch levels.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	var recvErr error
	go func() {
		defer wg.Done()
		conn, err := ln.Accept()
		if err != nil {
			recvErr = err
			return
		}
		defer conn.Close()
		r, err := stream.NewReader(conn)
		if err != nil {
			recvErr = err
			return
		}
		_, recvErr = io.Copy(io.Discard, r)
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fat, err := ratelimit.NewWriter(conn, 200e6, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	thin, err := ratelimit.NewWriter(conn, 8e6, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	var limited atomic.Pointer[ratelimit.Writer]
	limited.Store(fat)
	var levelLog []int
	w, err := stream.NewWriter(writerFunc(func(p []byte) (int, error) { return limited.Load().Write(p) }), stream.WriterConfig{
		Window:   50 * time.Millisecond,
		OnWindow: func(ws stream.WindowStat) { levelLog = append(levelLog, ws.NextLevel) },
	})
	if err != nil {
		t.Fatal(err)
	}
	src := corpus.NewFileReader(corpus.High, 1)
	if _, err := io.CopyN(w, src, 24<<20); err != nil {
		t.Fatal(err)
	}
	phase1Blocks := w.Stats().BlocksPerLevel[0]
	limited.Store(thin) // contention appears
	if _, err := io.CopyN(w, src, 16<<20); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	wg.Wait()
	if recvErr != nil {
		t.Fatalf("receiver: %v", recvErr)
	}
	stats := w.Stats()
	// Phase 1 (fat wire) should run mostly uncompressed; after the rate
	// cut more compressed blocks must appear.
	compressedAfter := (stats.Blocks - stats.BlocksPerLevel[0]) - 0
	if phase1Blocks == 0 {
		t.Log("note: phase 1 compressed everything; wire may be CPU-bound on this machine")
	}
	if compressedAfter == 0 {
		t.Fatalf("scheme never engaged compression after contention appeared (levels: %v)", levelLog)
	}
	if stats.LevelSwitches == 0 {
		t.Fatal("no level switches across the contention change")
	}
}
