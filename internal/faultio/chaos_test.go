package faultio_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"adaptio/internal/corpus"
	"adaptio/internal/faultio"
	"adaptio/internal/faultio/leakcheck"
	"adaptio/internal/stream"
	"adaptio/internal/tunnel"
)

// The chaos suite drives seeded fault scenarios through the compression
// stack and asserts the robustness contract from docs/robustness.md:
//
//   - benign faults (fragmentation, latency): byte-identical delivery;
//   - destructive faults (reset, stall, truncation, corruption): either
//     byte-identical delivery (the fault struck after the payload), an
//     intact prefix (truncation cut at a frame boundary — undetectable
//     without a length trailer), or a bounded-time error wrapping a typed
//     sentinel (stream.ErrBadFrame, faultio.ErrInjected, tunnel sentinels,
//     or a transport net.Error);
//   - never: a panic, a hang, or silently corrupted delivered bytes;
//   - and replaying a seed reproduces the outcome.
//
// TestChaosStream runs 32 seeds through writer→faulty wire→reader;
// TestChaosTunnel runs 24 seeds through client→entry→exit→echo over real
// TCP with a faulty wire. 56 scenarios total.

const (
	chaosStreamSeeds = 32
	chaosTunnelSeeds = 24
)

// outcome classifies one scenario run; comparable across replays.
type outcome struct {
	class     string // "identical", "prefix", "failed"
	delivered int
	sentinel  string
}

func (o outcome) String() string {
	return fmt.Sprintf("%s/%d/%s", o.class, o.delivered, o.sentinel)
}

// classifyErr names the typed sentinel err wraps, or "untyped".
func classifyErr(err error) string {
	var fe *stream.FrameError
	switch {
	case errors.As(err, &fe):
		return "ErrBadFrame"
	case errors.Is(err, stream.ErrBadFrame):
		return "ErrBadFrame"
	case errors.Is(err, faultio.ErrInjected):
		return "ErrInjected"
	case errors.Is(err, tunnel.ErrIdleTimeout):
		return "ErrIdleTimeout"
	case errors.Is(err, tunnel.ErrDial):
		return "ErrDial"
	case errors.Is(err, io.ErrClosedPipe):
		return "ClosedPipe"
	default:
		var ne net.Error
		if errors.As(err, &ne) {
			return "net.Error"
		}
		return "untyped"
	}
}

// chaosPayload derives the scenario's application payload: size and
// compressibility vary with the seed.
func chaosPayload(seed uint64) []byte {
	kind := corpus.Kind(seed % 3)
	size := 96<<10 + int(seed%7)*32<<10 // 96 KB .. 288 KB
	return corpus.Generate(kind, size, seed)
}

// runStreamScenario pushes payload through stream.Writer → faulty wire →
// stream.Reader (drained by WriteTo on odd seeds) with faults on the write side
// for even seeds and on the read side for odd ones. It enforces a bounded
// runtime: a stalled transfer is released after stallRelease and must then
// surface the stall error.
func runStreamScenario(t *testing.T, seed uint64, payload []byte) outcome {
	t.Helper()
	sc := faultio.ScenarioFromSeed(seed, len(payload))
	faultWriteSide := seed%2 == 0

	type result struct {
		got []byte
		err error
	}
	resCh := make(chan result, 1)

	// Wrappers are visible to the watchdog so it can release a stall on
	// either side. The write-side wrapper exists before the transfer
	// starts; the read-side one is published once writing completes.
	var wireBuf bytes.Buffer
	var wireW io.Writer = &wireBuf
	var fw *faultio.Writer
	if faultWriteSide {
		fw = faultio.NewWriter(&wireBuf, sc.Cfg)
		wireW = fw
	}
	var frMu sync.Mutex
	var fr *faultio.Reader
	release := func() {
		if fw != nil {
			fw.Close()
		}
		frMu.Lock()
		r := fr
		frMu.Unlock()
		if r != nil {
			r.Close()
		}
	}

	go func() {
		w, err := stream.NewParallelWriter(wireW, stream.WriterConfig{
			Static: true, StaticLevel: 1 + int(seed%3), BlockSize: 8 << 10,
		}, max(1, int(seed%3))) // 1, 1, 2: cover the inline and parallel writers
		if err != nil {
			resCh <- result{nil, err}
			return
		}
		_, werr := io.Copy(w, bytes.NewReader(payload))
		if cerr := w.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			resCh <- result{nil, werr}
			return
		}

		var wireR io.Reader = bytes.NewReader(wireBuf.Bytes())
		if !faultWriteSide {
			frMu.Lock()
			fr = faultio.NewReader(wireR, sc.Cfg)
			wireR = fr
			frMu.Unlock()
		}
		r, err := stream.NewReader(wireR)
		if err != nil {
			resCh <- result{nil, err}
			return
		}
		if seed%2 == 1 {
			var got bytes.Buffer
			_, rerr := r.WriteTo(&got)
			resCh <- result{got.Bytes(), rerr}
			return
		}
		got, rerr := io.ReadAll(r)
		resCh <- result{got, rerr}
	}()

	// Watchdog: a non-stalled scenario completes in well under a second;
	// anything still running after 2 s is stalled. Releasing the wrappers
	// (the application-level timeout) must then produce a prompt typed
	// failure — never a hang.
	var res result
	select {
	case res = <-resCh:
	case <-time.After(2 * time.Second):
		release()
		select {
		case res = <-resCh:
		case <-time.After(5 * time.Second):
			t.Fatalf("%v: transfer still hung 5s after stall release", sc)
		}
	}

	got, err := res.got, res.err
	switch {
	case err == nil && bytes.Equal(got, payload):
		return outcome{class: "identical", delivered: len(got)}
	case err == nil && len(got) < len(payload) && bytes.Equal(got, payload[:len(got)]):
		return outcome{class: "prefix", delivered: len(got)}
	case err != nil:
		if !bytes.Equal(got, payload[:min(len(got), len(payload))]) {
			t.Fatalf("%v: delivered bytes before the error are not an intact prefix", sc)
		}
		return outcome{class: "failed", delivered: len(got), sentinel: classifyErr(err)}
	default:
		t.Fatalf("%v: delivered %d bytes (payload %d) without error and without prefix property", sc, len(got), len(payload))
		return outcome{}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestChaosStream(t *testing.T) {
	leakcheck.Check(t)
	for seed := uint64(0); seed < chaosStreamSeeds; seed++ {
		seed := seed
		payload := chaosPayload(seed)
		sc := faultio.ScenarioFromSeed(seed, len(payload))
		t.Run(sc.String(), func(t *testing.T) {
			o := runStreamScenario(t, seed, payload)
			t.Logf("%v -> %v", sc, o)
			switch {
			case !sc.Destructive && o.class != "identical":
				t.Fatalf("benign scenario did not deliver identical payload: %v", o)
			case sc.Destructive && o.class == "failed" && o.sentinel == "untyped":
				t.Fatalf("destructive scenario failed with an untyped error: %v", o)
			case o.class == "prefix" && sc.Profile != "truncate" && sc.Profile != "mixed":
				t.Fatalf("profile %s silently delivered a prefix: %v", sc.Profile, o)
			}
		})
	}
}

// TestChaosStreamReplay: the stream-level scenarios are fully
// deterministic — same seed, same outcome, byte for byte.
func TestChaosStreamReplay(t *testing.T) {
	leakcheck.Check(t)
	for _, seed := range []uint64{1, 4, 9, 14, 19, 24, 29} {
		payload := chaosPayload(seed)
		a := runStreamScenario(t, seed, payload)
		b := runStreamScenario(t, seed, payload)
		if a != b {
			t.Errorf("seed %d: outcomes differ across replays: %v vs %v", seed, a, b)
		}
	}
}

// runTunnelScenario drives payload through client → entry ⇒ exit → echo
// with the scenario's faults injected on one endpoint's wire (alternating
// by seed), and classifies what the client observes.
func runTunnelScenario(t *testing.T, seed uint64, payload []byte) outcome {
	t.Helper()
	sc := faultio.ScenarioFromSeed(seed, len(payload))
	wrap := func(c net.Conn) net.Conn { return faultio.WrapConn(c, sc.Cfg) }

	base := tunnel.Config{
		Static: true, StaticLevel: 1,
		IdleTimeout:   300 * time.Millisecond, // bounds stalls
		ShutdownGrace: 100 * time.Millisecond,
		DialRetries:   2,
		DialBackoff:   10 * time.Millisecond,
	}
	cfgEntry, cfgExit := base, base
	if seed%2 == 0 {
		cfgEntry.WrapWire = wrap
	} else {
		cfgExit.WrapWire = wrap
	}

	// Echo server.
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
				io.Copy(conn, conn)
				if tc, ok := conn.(*net.TCPConn); ok {
					tc.CloseWrite()
				}
			}()
		}
	}()

	exit, err := tunnel.ListenExit(context.Background(), "127.0.0.1:0", ln.Addr().String(), cfgExit)
	if err != nil {
		t.Fatal(err)
	}
	defer exit.Close()
	entry, err := tunnel.ListenEntry(context.Background(), "127.0.0.1:0", exit.Addr().String(), cfgEntry)
	if err != nil {
		t.Fatal(err)
	}
	defer entry.Close()

	conn, err := net.Dial("tcp", entry.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	deadline := time.Now().Add(20 * time.Second)
	conn.SetDeadline(deadline)

	writeErrCh := make(chan error, 1)
	go func() {
		_, werr := conn.Write(payload)
		conn.(*net.TCPConn).CloseWrite()
		writeErrCh <- werr
	}()
	start := time.Now()
	echoed, readErr := io.ReadAll(conn)
	writeErr := <-writeErrCh
	if time.Since(start) > 19*time.Second {
		t.Fatalf("%v: transfer ran into the outer deadline — teardown not bounded", sc)
	}

	// Whatever arrived must be an intact prefix of the payload: frames
	// are CRC-verified before delivery, so corruption can shorten the
	// stream but never alter delivered bytes.
	if !bytes.Equal(echoed, payload[:min(len(echoed), len(payload))]) {
		t.Fatalf("%v: echoed bytes are not an intact prefix (got %d bytes)", sc, len(echoed))
	}

	err = readErr
	if err == nil {
		err = writeErr
	}
	switch {
	case len(echoed) == len(payload) && err == nil:
		return outcome{class: "identical", delivered: len(echoed)}
	case err != nil:
		return outcome{class: "failed", delivered: len(echoed), sentinel: classifyErr(err)}
	default:
		return outcome{class: "prefix", delivered: len(echoed)}
	}
}

func TestChaosTunnel(t *testing.T) {
	leakcheck.Check(t)
	for seed := uint64(1000); seed < 1000+chaosTunnelSeeds; seed++ {
		seed := seed
		payload := chaosPayload(seed)
		sc := faultio.ScenarioFromSeed(seed, len(payload))
		t.Run(sc.String(), func(t *testing.T) {
			o := runTunnelScenario(t, seed, payload)
			t.Logf("%v -> %v", sc, o)
			if !sc.Destructive && o.class != "identical" {
				t.Fatalf("benign scenario did not deliver identical payload: %v", o)
			}
			// Destructive scenarios: prefix property and bounded time
			// are asserted inside runTunnelScenario; the client's error,
			// when TCP surfaces one, is a transport error by nature.
		})
	}
}
