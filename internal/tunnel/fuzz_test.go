package tunnel

import (
	"bytes"
	"context"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"adaptio/internal/corpus"
	"adaptio/internal/stream"
)

// tunnelFrameSeed builds a valid compressed wire image for the fuzzer to
// mutate — what a healthy peer endpoint would send.
func tunnelFrameSeed(tb testing.TB) []byte {
	tb.Helper()
	var wire bytes.Buffer
	w, err := stream.NewWriter(&wire, stream.WriterConfig{Static: true, StaticLevel: 1, BlockSize: 1024})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := w.Write(corpus.Generate(corpus.Low, 3000, 13)); err != nil {
		tb.Fatal(err)
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return wire.Bytes()
}

// FuzzTunnelFrame feeds arbitrary bytes to a relay's wire side — the frames
// a hostile or corrupted peer could send. The relay must terminate without
// panicking or hanging, whatever arrives: the decompress path fails with a
// framing error, the compress path drains, and both plain and wire conns
// are closed. Seeds mirror the chaos suite's failure modes (truncation,
// header and payload bit flips, garbage splices; see testdata/fuzz).
func FuzzTunnelFrame(f *testing.F) {
	wire := tunnelFrameSeed(f)
	f.Add(wire)
	f.Add(wire[:len(wire)*2/3])
	f.Add([]byte{})
	f.Add([]byte("AC\x01\x01garbage that is not a frame at all"))
	flipped := append([]byte(nil), wire...)
	flipped[5] ^= 0x10 // rawLen byte of the first frame header
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		plainApp, plainRelay := net.Pipe()
		wireFeeder, wireRelay := net.Pipe()

		relayDone := make(chan struct{})
		go func() {
			defer close(relayDone)
			relay(context.Background(), plainRelay, wireRelay,
				Config{Static: true, StaticLevel: 1}, "exit->entry",
				newTunnelMetrics(nil), nil)
		}()

		var wg sync.WaitGroup
		wg.Add(4)
		go func() { // hostile peer: send the fuzzed frames, then EOF
			defer wg.Done()
			wireFeeder.Write(data) // unblocked by relay teardown if unread
			wireFeeder.Close()
		}()
		go func() { // drain frames the relay compresses toward the peer
			defer wg.Done()
			io.Copy(io.Discard, wireFeeder)
		}()
		go func() { // application: a short request, then hang up
			defer wg.Done()
			plainApp.Write([]byte("request"))
			plainApp.Close()
		}()
		go func() { // drain whatever the relay decompressed for the app
			defer wg.Done()
			io.Copy(io.Discard, plainApp)
		}()

		select {
		case <-relayDone:
		case <-time.After(10 * time.Second):
			t.Fatal("relay did not terminate on corrupt wire input")
		}
		// The relay closed both conns; the helper goroutines unblock.
		wg.Wait()
	})
}
