package nephele

import (
	"io"
	"testing"

	"adaptio/internal/block/blocktest"
	"adaptio/internal/corpus"
)

// allocNetChannelChurn is the per-channel cost of a Nephele network channel:
// open a TCP link, layer the compression stream and record framing on it,
// push 16 x 64 KB records through at static LIGHT, tear it down — the
// channel-setup-plus-data-plane path every subtask pair pays in an N x M
// link mesh.
func allocNetChannelChurn(tb testing.TB) (op func(), opBytes int) {
	rec := corpus.Generate(corpus.Moderate, 64<<10, 3)
	const records = 16
	spec := ChannelSpec{Type: Network, Compression: CompressionStatic, StaticLevel: 1}
	return func() {
		l, err := newNetLink()
		if err != nil {
			tb.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			r, err := l.openReader()
			if err != nil {
				done <- err
				return
			}
			wr, err := wrapReader(r, spec)
			if err != nil {
				done <- err
				return
			}
			rr := NewRecordReader(wr)
			for {
				_, err := rr.ReadRecord()
				if err == io.EOF {
					done <- nil
					return
				}
				if err != nil {
					done <- err
					return
				}
			}
		}()
		wc, err := l.openWriter()
		if err != nil {
			tb.Fatal(err)
		}
		w, sw, err := wrapWriter(wc, spec)
		if err != nil {
			tb.Fatal(err)
		}
		rw := NewRecordWriter(w)
		for j := 0; j < records; j++ {
			if err := rw.WriteRecord(rec); err != nil {
				tb.Fatal(err)
			}
		}
		if err := sw.Close(); err != nil {
			tb.Fatal(err)
		}
		if err := wc.Close(); err != nil {
			tb.Fatal(err)
		}
		if err := <-done; err != nil {
			tb.Fatal(err)
		}
		l.abort(io.EOF) // close listener and conns
	}, records * len(rec)
}

func BenchmarkAllocNetChannelChurn(b *testing.B) {
	op, opBytes := allocNetChannelChurn(b)
	blocktest.BenchAllocs(b, opBytes, op)
}

// TestAllocBudgetNetChannelChurn holds BenchmarkAllocNetChannelChurn's
// operation to its ceilings (docs/performance.md, "How performance is
// judged"): sockets, goroutines and the writer's obs registration, no block
// buffer.
func TestAllocBudgetNetChannelChurn(t *testing.T) {
	op, _ := allocNetChannelChurn(t)
	blocktest.AllocBudget(t, 100, 93, 26500, op)
}
