package stream

import (
	"bytes"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"adaptio/internal/block/blocktest"
	"adaptio/internal/corpus"
	"adaptio/internal/faultio/leakcheck"
	"adaptio/internal/vclock"
)

func TestParallelRoundTripAllKinds(t *testing.T) {
	leakcheck.Check(t)
	blocktest.Track(t) // pipeline workers and flusher must release every buffer
	for _, workers := range []int{2, 4, 8} {
		for _, kind := range corpus.Kinds() {
			src := corpus.Generate(kind, 600<<10, 3)
			var wire bytes.Buffer
			w := mustWriter(t, &wire, WriterConfig{
				Static: true, StaticLevel: LevelLight,
				Parallelism: workers, BlockSize: 16 << 10,
			})
			if _, err := w.Write(src); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			st := w.Stats()
			if st.AppBytes != int64(len(src)) || st.WireBytes != int64(wire.Len()) {
				t.Fatalf("workers=%d %v: stats app=%d wire=%d buf=%d",
					workers, kind, st.AppBytes, st.WireBytes, wire.Len())
			}
			out, err := io.ReadAll(mustReader(t, &wire))
			if err != nil || !bytes.Equal(out, src) {
				t.Fatalf("workers=%d %v: round trip failed: %v", workers, kind, err)
			}
		}
	}
}

// TestSharedPoolConcurrentWriters runs several writers on one EncodePool at
// once, each from its own goroutine and to its own destination: every stream
// must come out whole and in order (no frame handed to the wrong writer),
// the writers' flushers must end with their writers, and the workers with
// the pool.
func TestSharedPoolConcurrentWriters(t *testing.T) {
	leakcheck.Check(t)
	blocktest.Track(t)
	pool := NewEncodePool(3)
	var wg sync.WaitGroup
	for i, kind := range []corpus.Kind{corpus.High, corpus.Moderate, corpus.Low, corpus.Moderate} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := append(corpus.Generate(kind, 900<<10, uint64(i)), incompressible(100<<10, int64(i))...)
			var wire bytes.Buffer
			w, err := NewWriter(&wire, WriterConfig{Static: true, StaticLevel: LevelLight, Pool: pool, BlockSize: 16 << 10})
			if err != nil {
				t.Error(err)
				return
			}
			for off := 0; off < len(src); off += 40 << 10 {
				if _, err := w.Write(src[off:min(off+40<<10, len(src))]); err != nil {
					t.Error(err)
					return
				}
				if off%(200<<10) == 0 {
					if err := w.Flush(); err != nil {
						t.Error(err)
						return
					}
				}
			}
			if err := w.Close(); err != nil {
				t.Error(err)
				return
			}
			if st := w.Stats(); st.AppBytes != int64(len(src)) || st.WireBytes != int64(wire.Len()) {
				t.Errorf("writer %d: stats app=%d wire=%d, wrote %d, wire holds %d", i, st.AppBytes, st.WireBytes, len(src), wire.Len())
			}
			r, err := NewReader(&wire)
			if err != nil {
				t.Error(err)
				return
			}
			out, err := io.ReadAll(r)
			if err != nil || !bytes.Equal(out, src) {
				t.Errorf("writer %d: round trip failed: %v", i, err)
			}
		}()
	}
	wg.Wait()
	pool.Close()
}

// TestParallelFramesStayOrdered: the frames must arrive in submission order
// even when later blocks compress much faster than earlier ones. Blocks of
// wildly different compressibility exercise the reorder buffer.
func TestParallelFramesStayOrdered(t *testing.T) {
	leakcheck.Check(t)
	var src []byte
	for i := 0; i < 64; i++ {
		var chunk []byte
		if i%2 == 0 {
			chunk = corpus.Generate(corpus.Low, 16<<10, uint64(i)) // slow to compress
		} else {
			chunk = make([]byte, 16<<10) // zeros: instant
		}
		src = append(src, chunk...)
	}
	var wire bytes.Buffer
	w := mustWriter(t, &wire, WriterConfig{
		Static: true, StaticLevel: LevelHeavy, // heavy codec amplifies the skew
		Parallelism: runtime.NumCPU(), BlockSize: 16 << 10,
	})
	if _, err := w.Write(src); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(mustReader(t, &wire))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, src) {
		t.Fatal("frame reordering corrupted the stream")
	}
}

func TestParallelAdaptive(t *testing.T) {
	leakcheck.Check(t)
	clk := vclock.NewManual()
	src := corpus.Generate(corpus.High, 1<<20, 5)
	var wire bytes.Buffer
	w := mustWriter(t, &wire, WriterConfig{Parallelism: 4, Clock: clk, Window: time.Second, BlockSize: 32 << 10})
	for off := 0; off < len(src); off += 16 << 10 {
		if _, err := w.Write(src[off : off+16<<10]); err != nil {
			t.Fatal(err)
		}
		clk.Advance(time.Second)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Stats().LevelSwitches == 0 {
		t.Fatal("no adaptation under the parallel pipeline")
	}
	out, err := io.ReadAll(mustReader(t, &wire))
	if err != nil || !bytes.Equal(out, src) {
		t.Fatalf("parallel adaptive round trip failed: %v", err)
	}
}

func TestParallelFlushWaitsForInFlight(t *testing.T) {
	leakcheck.Check(t)
	var wire bytes.Buffer
	w := mustWriter(t, &wire, WriterConfig{Static: true, StaticLevel: LevelHeavy, Parallelism: 4, BlockSize: 8 << 10})
	src := corpus.Generate(corpus.Moderate, 256<<10, 2)
	if _, err := w.Write(src); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// After Flush every submitted byte must be on the wire and counted.
	st := w.Stats()
	if st.WireBytes != int64(wire.Len()) || st.AppBytes != int64(len(src)) {
		t.Fatalf("flush left frames in flight: wire stat %d vs buffer %d", st.WireBytes, wire.Len())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestParallelErrorPropagates(t *testing.T) {
	leakcheck.Check(t)
	w := mustWriter(t, &errWriter{n: 100}, WriterConfig{
		Static: true, StaticLevel: 0, Parallelism: 3, BlockSize: 4 << 10,
	})
	data := bytes.Repeat([]byte("z"), 4<<10)
	var sawErr error
	for i := 0; i < 200 && sawErr == nil; i++ {
		if _, err := w.Write(data); err != nil {
			sawErr = err
			break
		}
		sawErr = w.Flush()
	}
	if sawErr == nil {
		t.Fatal("downstream error never surfaced through the pipeline")
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close after pipeline error should fail")
	}
}

func TestParallelConfigValidation(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, WriterConfig{Parallelism: -2}); err == nil {
		t.Fatal("negative parallelism accepted")
	}
	pool := NewEncodePool(1)
	defer pool.Close()
	if _, err := NewWriter(&buf, WriterConfig{Parallelism: 2, Pool: pool}); err == nil {
		t.Fatal("a private and a shared pool accepted together")
	}
	// 0 and 1 are synchronous and valid.
	for _, p := range []int{0, 1} {
		w, err := NewWriter(&buf, WriterConfig{Parallelism: p})
		if err != nil {
			t.Fatalf("parallelism %d rejected: %v", p, err)
		}
		w.Close()
	}
}

// BenchmarkParallelHeavyCompression measures the worker-pool scaling of the
// HEAVY codec. The speedup is bounded by GOMAXPROCS: on a single-CPU
// machine all worker counts perform alike (the pool adds only ordering
// overhead); on an N-core sender expect near-linear scaling until the
// downstream writer saturates.
func BenchmarkParallelHeavyCompression(b *testing.B) {
	src := corpus.Generate(corpus.Moderate, 4<<20, 1)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(benchName(workers), func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				w, _ := NewWriter(io.Discard, WriterConfig{
					Static: true, StaticLevel: LevelHeavy, Parallelism: workers,
				})
				if _, err := w.Write(src); err != nil {
					b.Fatal(err)
				}
				if err := w.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchName(workers int) string {
	return "workers-" + string(rune('0'+workers))
}
