package stream_test

import (
	"bytes"
	"io"
	"runtime"
	"testing"

	"adaptio/internal/block/blocktest"
	"adaptio/internal/corpus"
	"adaptio/internal/stream"
)

// Allocation scenarios for the data plane (docs/performance.md, "How
// performance is judged"). Each scenario is one function that sets a stream
// up and returns the operation to repeat; BenchmarkAlloc<Name> times that
// operation and TestAllocBudgets holds it to the allocs/op and B/op ceilings
// in its table, so the benchmark a reading comes from and the tier-1 test
// that enforces it cannot drift apart.
//
// The *Steady scenarios measure the per-block cost of long-lived streams —
// the paper's sustained-transfer scenario — while the *Churn scenarios
// measure stream setup+teardown, the connection-per-request scenario the
// tunnel and Nephele channels see under heavy traffic.

// loopSource replays the same encoded wire bytes forever, allocation-free,
// so a single long-lived Reader can decode b.N frames.
type loopSource struct {
	data []byte
	off  int
}

func (l *loopSource) Read(p []byte) (int, error) {
	if l.off == len(l.data) {
		l.off = 0
	}
	n := copy(p, l.data[l.off:])
	l.off += n
	return n, nil
}

// benchPipe is a minimal in-memory pipe: Write appends, Read consumes, and
// the buffer resets once drained. After one warm-up op its backing array is
// fully grown, so steady-state ops do not allocate in the transport.
type benchPipe struct {
	buf []byte
	off int
}

func (p *benchPipe) Write(b []byte) (int, error) {
	p.buf = append(p.buf, b...)
	return len(b), nil
}

func (p *benchPipe) Read(b []byte) (int, error) {
	if p.off == len(p.buf) {
		return 0, io.EOF
	}
	n := copy(b, p.buf[p.off:])
	p.off += n
	if p.off == len(p.buf) {
		p.buf = p.buf[:0]
		p.off = 0
	}
	return n, nil
}

func benchBlock(tb testing.TB, n int) []byte {
	tb.Helper()
	return corpus.Generate(corpus.Moderate, n, 7)
}

func staticCfg(level int) stream.WriterConfig {
	return stream.WriterConfig{Static: true, StaticLevel: level}
}

// encodeWire returns the wire form of data at the given static level.
func encodeWire(tb testing.TB, data []byte, level int) []byte {
	tb.Helper()
	var wire bytes.Buffer
	w, err := stream.NewWriter(&wire, staticCfg(level))
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		tb.Fatal(err)
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return wire.Bytes()
}

// writeBlocks is the writer-side operation: the given number of 128 KB blocks
// per call into a long-lived static-LIGHT Writer, NewParallelWriter's when
// workers > 0, that tb.Cleanup closes.
func writeBlocks(tb testing.TB, dst io.Writer, workers, blocks int) func() {
	tb.Helper()
	open := stream.NewWriter
	if workers > 0 {
		open = func(dst io.Writer, cfg stream.WriterConfig) (*stream.Writer, error) {
			return stream.NewParallelWriter(dst, cfg, workers)
		}
	}
	w, err := open(dst, staticCfg(stream.LevelLight))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		if err := w.Close(); err != nil {
			tb.Error(err)
		}
	})
	data := benchBlock(tb, blocks*stream.DefaultBlockSize)
	return func() {
		if _, err := w.Write(data); err != nil {
			tb.Fatal(err)
		}
	}
}

// readBlock is the reader-side operation: one 128 KB frame per call through
// a long-lived Reader that open builds over src.
func readBlock(tb testing.TB, src io.Reader, open func(io.Reader) (*stream.Reader, error)) func() {
	tb.Helper()
	r, err := open(src)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { r.Close() })
	out := make([]byte, stream.DefaultBlockSize)
	return func() {
		if _, err := io.ReadFull(r, out); err != nil {
			tb.Fatal(err)
		}
	}
}

// lightFrames replays one 128 KB block's LIGHT frame forever.
func lightFrames(tb testing.TB) io.Reader {
	return &loopSource{data: encodeWire(tb, benchBlock(tb, stream.DefaultBlockSize), stream.LevelLight)}
}

// The scenarios. Steady: one block through a long-lived serial Writer, one
// frame through a long-lived Reader, and both back to back over an
// in-memory pipe. PipelineWriter: the writer with 4 workers. ParallelReader:
// the deprecated NewParallelReader shim asked for 4 workers, which must cost
// what NewReader does.
func allocWriterSteady(tb testing.TB) func()   { return writeBlocks(tb, io.Discard, 0, 1) }
func allocPipelineWriter(tb testing.TB) func() { return writeBlocks(tb, io.Discard, 4, 1) }
func allocReaderSteady(tb testing.TB) func()   { return readBlock(tb, lightFrames(tb), stream.NewReader) }
func allocParallelReader(tb testing.TB) func() {
	return readBlock(tb, lightFrames(tb), func(src io.Reader) (*stream.Reader, error) {
		return stream.NewParallelReader(src, 4)
	})
}

func allocRoundTripSerial(tb testing.TB) func() {
	pipe := &benchPipe{}
	write, read := writeBlocks(tb, pipe, 0, 1), readBlock(tb, pipe, stream.NewReader)
	roundTrip := func() { write(); read() }
	roundTrip() // grow the transport once
	return roundTrip
}

// allocWriterChurn: Writer setup, one block, teardown — the per-connection
// cost a tunnel or Nephele channel pays.
func allocWriterChurn(tb testing.TB) func() {
	data := benchBlock(tb, stream.DefaultBlockSize)
	return func() {
		w, err := stream.NewWriter(io.Discard, staticCfg(stream.LevelLight))
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := w.Write(data); err != nil {
			tb.Fatal(err)
		}
		if err := w.Close(); err != nil {
			tb.Fatal(err)
		}
	}
}

// allocSerialWriterTwoBlock: 256 KB per call into a long-lived serial Writer
// built as a two-CPU process builds it, so every call is one batch: the
// writer's worker encodes the first block while the caller encodes the second.
func allocSerialWriterTwoBlock(tb testing.TB) func() {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	return writeBlocks(tb, io.Discard, 0, 2)
}

func benchAlloc(b *testing.B, scenario func(testing.TB) func()) {
	blocktest.BenchAllocs(b, stream.DefaultBlockSize, scenario(b))
}

func BenchmarkAllocWriterSteady(b *testing.B)    { benchAlloc(b, allocWriterSteady) }
func BenchmarkAllocReaderSteady(b *testing.B)    { benchAlloc(b, allocReaderSteady) }
func BenchmarkAllocRoundTripSerial(b *testing.B) { benchAlloc(b, allocRoundTripSerial) }
func BenchmarkAllocWriterChurn(b *testing.B)     { benchAlloc(b, allocWriterChurn) }
func BenchmarkAllocPipelineWriter(b *testing.B)  { benchAlloc(b, allocPipelineWriter) }
func BenchmarkAllocSerialWriterTwoBlockSteady(b *testing.B) {
	blocktest.BenchAllocs(b, 2*stream.DefaultBlockSize, allocSerialWriterTwoBlock(b))
}

// TestAllocBudgets is the allocation gate of the stream layer: every
// scenario above, 300 operations each, against the ceilings written here.
// Steady rows read 0 allocs/op and 0 B/op; their byte ceilings are room for
// one pooled buffer missed on a P that had none cached (a 160 KB block is
// 546 B/op here), three of them on PipelineWriter, which hands buffers
// between goroutines. WriterChurn reads 38 allocs/op and 20.7 KB/op, nearly
// all of it obs metric registration; the ceiling leaves 3 allocations and
// 15 % of the bytes. A change that moves a reading moves its ceiling in the same
// diff.
func TestAllocBudgets(t *testing.T) {
	for _, row := range []struct {
		name          string
		scenario      func(testing.TB) func()
		allocs, bytes uint64
	}{
		{"RoundTripSerial", allocRoundTripSerial, 0, 512},
		{"WriterSteady", allocWriterSteady, 0, 512},
		{"ReaderSteady", allocReaderSteady, 0, 512},
		{"WriterChurn", allocWriterChurn, 41, 24000},
		{"PipelineWriter", allocPipelineWriter, 0, 2048},
		{"ParallelReader", allocParallelReader, 0, 512},
		{"SerialWriterTwoBlockSteady", allocSerialWriterTwoBlock, 0, 512},
	} {
		t.Run(row.name, func(t *testing.T) {
			blocktest.AllocBudget(t, 300, row.allocs, row.bytes, row.scenario(t))
		})
	}
}
