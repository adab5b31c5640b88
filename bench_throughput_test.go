// Throughput benchmark suite: the MB/s counterpart of the allocation
// benchmarks in internal/*/bench_alloc_test.go. The paper trades compression
// speed against I/O bandwidth (Algorithm 1 selects a level by observed data
// rate), so the codecs and the frame path ARE the hot path of this system;
// this file freezes the floors under the kernel tier and the zero-copy relay
// (docs/performance.md): the codec kernels and the NO-level relay.
// The writer, reader, pipeline and compressing-relay rungs are measured by
// bench/'s ladder (stream.writer/pwriter/reader/preader.mb_s,
// tunnel.relay.mb_s) on the host that runs the gate.
//
// Every benchmark sets b.SetBytes with the raw (uncompressed) byte count, so
// `go test -bench '^BenchmarkThroughput'` reports application-level MB/s.
// The committed baseline lives in BENCH_throughput.json; compare with
// `make bench-throughput-compare` (cmd/benchdiff -mode throughput).
package adaptio_test

import (
	"context"
	"io"
	"net"
	"testing"

	"adaptio/internal/compress"
	"adaptio/internal/compress/lzfast"
	"adaptio/internal/compress/lzheavy"
	"adaptio/internal/corpus"
	"adaptio/internal/stream"
	"adaptio/internal/tunnel"
)

// throughputBlock is the per-op unit for the codec benchmarks: one default
// stream block.
const throughputBlock = 128 << 10

// benchCorpus returns the named benchmark input. "mixed" splices equal
// thirds of the three paper corpora into one block, so a decode pass crosses
// fax runs, prose, and entropy data (and therefore both the wild-copy fast
// path and the careful tail path) within a single op.
func benchCorpus(name string, n int) []byte {
	switch name {
	case "high":
		return corpus.Generate(corpus.High, n, 1)
	case "moderate":
		return corpus.Generate(corpus.Moderate, n, 1)
	case "low":
		return corpus.Generate(corpus.Low, n, 1)
	case "mixed":
		third := n / 3
		out := make([]byte, 0, n)
		out = append(out, corpus.Generate(corpus.High, third, 1)...)
		out = append(out, corpus.Generate(corpus.Moderate, third, 1)...)
		out = append(out, corpus.Generate(corpus.Low, n-2*third, 1)...)
		return out
	default:
		panic("unknown bench corpus " + name)
	}
}

var throughputCodecs = []struct {
	name  string
	codec compress.Codec
}{
	{"lzfast", lzfast.Fast{}},
	{"lzfast-hc", lzfast.HC{}},
	{"lzheavy", lzheavy.Codec{}},
}

var throughputKinds = []string{"high", "moderate", "low", "mixed"}

func BenchmarkThroughputCompress(b *testing.B) {
	for _, tc := range throughputCodecs {
		for _, kind := range throughputKinds {
			b.Run(tc.name+"/"+kind, func(b *testing.B) {
				src := benchCorpus(kind, throughputBlock)
				dst := make([]byte, 0, 2*len(src))
				b.SetBytes(int64(len(src)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					dst = tc.codec.Compress(dst[:0], src)
				}
				b.ReportMetric(float64(len(dst))/float64(len(src)), "ratio")
			})
		}
	}
}

func BenchmarkThroughputDecompress(b *testing.B) {
	for _, tc := range throughputCodecs {
		for _, kind := range throughputKinds {
			b.Run(tc.name+"/"+kind, func(b *testing.B) {
				src := benchCorpus(kind, throughputBlock)
				comp := tc.codec.Compress(nil, src)
				dst := make([]byte, 0, len(src))
				b.SetBytes(int64(len(src)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					out, err := tc.codec.Decompress(dst[:0], comp, len(src))
					if err != nil {
						b.Fatal(err)
					}
					dst = out[:0]
				}
			})
		}
	}
}

// benchTunnelRelay drives the full tunnel data plane over a real loopback:
// per op one connection writes 8 blocks through entry→exit to an echo server
// and reads them back, so every payload byte crosses both relays twice.
// SetBytes counts both directions.
func benchTunnelRelay(b *testing.B, cfg tunnel.Config) {
	b.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				io.Copy(c, c)
			}(c)
		}
	}()

	exit, err := tunnel.ListenExit(ctx, "127.0.0.1:0", ln.Addr().String(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer exit.Close()
	entry, err := tunnel.ListenEntry(ctx, "127.0.0.1:0", exit.Addr().String(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer entry.Close()

	payload := benchCorpus("moderate", 8*throughputBlock)
	echo := make([]byte, len(payload))
	b.SetBytes(int64(2 * len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn, err := net.Dial("tcp", entry.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := io.ReadFull(conn, echo)
			done <- err
		}()
		if _, err := conn.Write(payload); err != nil {
			b.Fatal(err)
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
		if err := <-done; err != nil {
			b.Fatal(err)
		}
		conn.Close()
	}
}

// BenchmarkThroughputRelayNoLevel pins the framed zero-copy path: NO level
// means stored-raw vectored frames out of ReadDirect on the compress side
// and CRC-verified direct delivery on the decompress side — framing overhead
// without a single user-space buffer-to-buffer copy.
func BenchmarkThroughputRelayNoLevel(b *testing.B) {
	benchTunnelRelay(b, tunnel.Config{Static: true, StaticLevel: stream.LevelNo})
}
