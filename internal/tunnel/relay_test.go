package tunnel_test

import (
	"bytes"
	"io"
	"math/rand"
	"net"
	"testing"
	"time"

	"adaptio/internal/core"
	"adaptio/internal/corpus"
	"adaptio/internal/faultio/leakcheck"
	"adaptio/internal/obs"
	"adaptio/internal/stream"
	"adaptio/internal/tunnel"
)

// TestRelayCoalescingFlushesPartialBlocks runs an interactive exchange —
// small request, small response, the client never half-closes — through a
// framed tunnel. Without the coalescing flush deadline a sub-block payload
// would sit in the writer until EOF and this exchange would deadlock; with
// it, each message must complete within a bound far below the test timeout.
// In "quiet-gap" each message follows a pause longer than FlushInterval: no
// frame was cut for a whole interval, so neither endpoint may hold it, and a
// round trip must take well under one interval. In "first-message" each
// round is a fresh connection's first message, which no frame came before:
// neither endpoint may hold it either.
func TestRelayCoalescingFlushesPartialBlocks(t *testing.T) {
	for _, tc := range []struct {
		name   string
		flush  time.Duration // Config.FlushInterval
		pause  time.Duration // before each round
		redial bool          // each round on a fresh connection
		maxRTT time.Duration
	}{
		{name: "default", maxRTT: 2 * time.Second},
		{name: "quiet-gap", flush: 200 * time.Millisecond, pause: 300 * time.Millisecond, maxRTT: 100 * time.Millisecond},
		{name: "first-message", flush: 200 * time.Millisecond, redial: true, maxRTT: 100 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			leakcheck.Check(t)
			addr, _ := startTunnel(t, tunnel.Config{Static: true, StaticLevel: 1, FlushInterval: tc.flush})

			var conn net.Conn
			msg := corpus.Generate(corpus.Moderate, 4<<10, 31)
			buf := make([]byte, len(msg))
			for round := 0; round < 3; round++ {
				if conn == nil || tc.redial {
					c, err := net.Dial("tcp", addr)
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { c.Close() })
					conn = c
				}
				time.Sleep(tc.pause)
				start := time.Now()
				if _, err := conn.Write(msg); err != nil {
					t.Fatalf("round %d: write: %v", round, err)
				}
				conn.SetReadDeadline(time.Now().Add(5 * time.Second))
				if _, err := io.ReadFull(conn, buf); err != nil {
					t.Fatalf("round %d: echo never arrived (coalescing flush broken?): %v", round, err)
				}
				if !bytes.Equal(buf, msg) {
					t.Fatalf("round %d: echo mismatch", round)
				}
				if rtt := time.Since(start); rtt > tc.maxRTT {
					t.Fatalf("round %d: interactive RTT %v, want under %v", round, rtt, tc.maxRTT)
				}
			}
		})
	}
}

// flipPolicy moves to the other of levels 1 and 2 at every window.
type flipPolicy struct{ second bool }

func (p *flipPolicy) Level() int {
	if p.second {
		return 2
	}
	return 1
}

func (p *flipPolicy) Observe(float64) int {
	p.second = !p.second
	return p.Level()
}

// TestRelayCoalescingSurvivesLevelSwitch holds a partial block to its
// coalescing deadline while the level changes every window. The read that
// times out on that deadline closes a window, and the level switch cuts the
// pending block inside it, so the timeout finds nothing buffered. It is still
// the coalescing deadline and not an error: the relay must carry on.
func TestRelayCoalescingSurvivesLevelSwitch(t *testing.T) {
	leakcheck.Check(t)
	addr, collector := startTunnel(t, tunnel.Config{
		Policy:        func() core.Policy { return new(flipPolicy) },
		Window:        20 * time.Millisecond,
		FlushInterval: 200 * time.Millisecond,
	})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	msg := corpus.Generate(corpus.Moderate, 4<<10, 31)
	buf := make([]byte, len(msg))
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	// The first message is framed at once; the second waits for the deadline.
	for round := 0; round < 3; round++ {
		if _, err := conn.Write(msg); err != nil {
			t.Fatalf("round %d: write: %v", round, err)
		}
		if _, err := io.ReadFull(conn, buf); err != nil {
			t.Fatalf("round %d: echo never arrived: %v", round, err)
		}
		if !bytes.Equal(buf, msg) {
			t.Fatalf("round %d: echo mismatch", round)
		}
	}
	conn.Close()
	for _, s := range waitStats(t, collector, 2) {
		if s.Err != nil {
			t.Errorf("%s: %v", s.Direction, s.Err)
		}
		if s.Stats.LevelSwitches == 0 {
			t.Errorf("%s: no level switch: the deadline never met one", s.Direction)
		}
	}
}

// TestRelayCoalescingBoundsPartialFrames trickles small writes through a
// held-open connection for about 20 flush intervals. However early the
// compress path cuts a partial block, it cuts at most one per
// FlushInterval besides two free frames: the first message, framed at once
// because no frame came before it, and the final frame at EOF. Each
// direction's frame count stays within the connection's lifetime /
// FlushInterval + 2. The bound follows from the rule, not from timing: a
// late timer or a slow host only lowers the count. Flushing every short
// read would cut one frame per write, about 200, several times the bound.
func TestRelayCoalescingBoundsPartialFrames(t *testing.T) {
	leakcheck.Check(t)
	const (
		flush  = 20 * time.Millisecond
		every  = 2 * time.Millisecond
		writes = 200 // 20 intervals
	)
	start := time.Now()
	addr, collector := startTunnel(t, tunnel.Config{Static: true, StaticLevel: 1, FlushInterval: flush})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	msg := corpus.Generate(corpus.Moderate, 64, 7)
	echoed := make(chan int64, 1)
	go func() {
		n, _ := io.Copy(io.Discard, conn)
		echoed <- n
	}()
	for i := 0; i < writes; i++ {
		if _, err := conn.Write(msg); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		time.Sleep(every)
	}
	conn.(*net.TCPConn).CloseWrite()
	if n := <-echoed; n != writes*int64(len(msg)) {
		t.Fatalf("echoed %d bytes, want %d", n, writes*len(msg))
	}
	stats := waitStats(t, collector, 2)
	elapsed := time.Since(start)
	max := int64(elapsed/flush) + 2
	for _, s := range stats {
		if s.Err != nil {
			t.Errorf("%s: %v", s.Direction, s.Err)
		}
		if s.Stats.Blocks > max {
			t.Errorf("%s: %d frames in %v, want at most %d (one partial frame per %v)", s.Direction, s.Stats.Blocks, elapsed, max, flush)
		}
	}
}

// TestRelayCopyAccountingMetrics pins the zero-copy relay gate at the metric
// level: traffic framed stored-raw — because the level is NO, or because the
// entropy probe judged the blocks hopeless at a compressing level — must
// relay with no copy but the growth of each compress path's pending block
// from the arena's smallest class to a full block's (< 1.0 is the CI gate),
// while a block the codec runs on reports its copies.
func TestRelayCopyAccountingMetrics(t *testing.T) {
	leakcheck.Check(t)
	const blocks = 16
	// The entry's and the exit's compress paths each move their pending
	// block up 4 → 16 → 64 → 160 KB once, copying what it holds. The
	// FlushInterval of the stored-raw cases is long so that, besides each
	// direction's first read (framed at once, as no frame came before it)
	// and its tail at EOF, only full blocks are cut: a partial cut midway
	// would shrink the block and grow it again.
	const growth = 2 * (4 + 16 + 64) << 10
	payload := corpus.Generate(corpus.High, blocks*stream.DefaultBlockSize, 41)
	// What an already-compressed or encrypted payload looks like to the
	// probe: uniform bytes.
	compressed := make([]byte, len(payload))
	rand.New(rand.NewSource(41)).Read(compressed)

	run := func(t *testing.T, cfg tunnel.Config, payload []byte) *obs.Registry {
		reg := obs.NewRegistry()
		cfg.Obs = reg.Scope("tunnel")
		addr, collector := startTunnel(t, cfg)
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		go func() {
			conn.Write(payload)
			conn.(*net.TCPConn).CloseWrite()
		}()
		if _, err := io.ReadAll(conn); err != nil {
			t.Fatal(err)
		}
		waitStats(t, collector, 2)
		return reg
	}
	counter := func(t *testing.T, reg *obs.Registry, name string) int64 {
		t.Helper()
		c, ok := reg.Get(name).(*obs.Counter)
		if !ok {
			t.Fatalf("metric %s not registered", name)
		}
		return c.Value()
	}
	ratioOf := func(t *testing.T, reg *obs.Registry) float64 {
		t.Helper()
		f, ok := reg.Get("tunnel.relay.bytes_copied_per_byte_relayed").(*obs.FloatFuncMetric)
		if !ok {
			t.Fatal("ratio metric not registered")
		}
		return f.Value()
	}

	t.Run("no-level", func(t *testing.T) {
		// startTunnel gives both endpoints the same cfg and so the same
		// scope: the counters sum the entry's and the exit's tx (ReadDirect
		// + stored-raw vectored frames) and rx (identity frames streamed
		// direct) paths.
		reg := run(t, tunnel.Config{Static: true, StaticLevel: 0, FlushInterval: time.Minute}, payload)
		if copied := counter(t, reg, "tunnel.relay.bytes_copied"); copied != growth {
			t.Errorf("bytes_copied = %d at NO level, want the pending blocks' growth %d", copied, growth)
		}
		if pt := counter(t, reg, "tunnel.relay.passthrough_bytes"); pt < int64(len(payload)) {
			t.Errorf("passthrough_bytes = %d, want >= %d", pt, len(payload))
		}
		// Relayed bytes count the payload at each endpoint's tx and rx.
		want := float64(growth) / float64(4*len(payload))
		if ratio := ratioOf(t, reg); ratio >= 1.0 || ratio != want {
			t.Errorf("bytes_copied_per_byte_relayed = %v at NO level, want %v", ratio, want)
		}
	})
	t.Run("light-skips-incompressible", func(t *testing.T) {
		// The case an operator-set unframed mode used to cover, handled by
		// what the code observes. The long FlushInterval also keeps partial
		// blocks, which the probe leaves under its MinLen to the codec and
		// whose stored-raw fallback counts as a copy, to the first and the
		// last of each direction.
		reg := run(t, tunnel.Config{Static: true, StaticLevel: 1, FlushInterval: time.Minute}, compressed)
		if copied := counter(t, reg, "tunnel.relay.bytes_copied"); copied != growth {
			t.Errorf("bytes_copied = %d for probe-skipped blocks at LIGHT, want the pending blocks' growth %d", copied, growth)
		}
		if pt := counter(t, reg, "tunnel.relay.passthrough_bytes"); pt < int64(len(compressed)) {
			t.Errorf("passthrough_bytes = %d, want >= %d", pt, len(compressed))
		}
		// Every frame is stored raw and the payload is framed once: the
		// wire carries the app bytes plus one 16-byte header per frame.
		app, rxBlocks := counter(t, reg, "tunnel.relay.tx_app_bytes"), counter(t, reg, "tunnel.relay.rx_blocks")
		if wire := counter(t, reg, "tunnel.relay.tx_wire_bytes"); wire != app+16*rxBlocks {
			t.Errorf("tx_wire_bytes = %d, want tx_app_bytes %d + 16 × rx_blocks %d", wire, app, rxBlocks)
		}
	})
	t.Run("light-compresses-and-copies", func(t *testing.T) {
		reg := run(t, tunnel.Config{Static: true, StaticLevel: 1}, payload)
		copied := counter(t, reg, "tunnel.relay.bytes_copied")
		if copied == 0 {
			t.Error("bytes_copied = 0 at LIGHT, codec copies must be accounted")
		}
		// Even compressing, the refactor keeps the relay at about one
		// user-space copy per byte (the codec transform itself).
		if ratio := ratioOf(t, reg); ratio <= 0 || ratio > 1.5 {
			t.Errorf("bytes_copied_per_byte_relayed = %v at LIGHT, want (0, 1.5]", ratio)
		}
	})
}
