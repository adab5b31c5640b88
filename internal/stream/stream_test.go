package stream

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"adaptio/internal/block/blocktest"
	"adaptio/internal/compress"
	"adaptio/internal/corpus"
	"adaptio/internal/vclock"
)

func mustWriter(t *testing.T, dst io.Writer, cfg WriterConfig) *Writer {
	t.Helper()
	w, err := NewWriter(dst, cfg)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	return w
}

// mustParallelWriter is mustWriter through NewParallelWriter; 0 workers is
// NewWriter.
func mustParallelWriter(t *testing.T, dst io.Writer, cfg WriterConfig, workers int) *Writer {
	t.Helper()
	if workers == 0 {
		return mustWriter(t, dst, cfg)
	}
	w, err := NewParallelWriter(dst, cfg, workers)
	if err != nil {
		t.Fatalf("NewParallelWriter: %v", err)
	}
	return w
}

func mustReader(t *testing.T, src io.Reader) *Reader {
	t.Helper()
	r, err := NewReader(src)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	return r
}

func TestConfigValidation(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(nil, WriterConfig{}); err == nil {
		t.Error("nil destination accepted")
	}
	if _, err := NewWriter(&buf, WriterConfig{BlockSize: -1}); err == nil {
		t.Error("negative block size accepted")
	}
	if _, err := NewWriter(&buf, WriterConfig{BlockSize: MaxBlockSize + 1}); err == nil {
		t.Error("oversized block size accepted")
	}
	if _, err := NewWriter(&buf, WriterConfig{Window: -time.Second}); err == nil {
		t.Error("negative window accepted")
	}
	if _, err := NewWriter(&buf, WriterConfig{Static: true, StaticLevel: 99}); err == nil {
		t.Error("out-of-ladder static level accepted")
	}
	if _, err := NewWriter(&buf, WriterConfig{Ladder: compress.Ladder{}}); err == nil {
		t.Error("empty ladder accepted")
	}
	if _, err := NewReader(nil); err == nil {
		t.Error("nil source accepted")
	}
}

func TestStaticRoundTripAllLevels(t *testing.T) {
	blocktest.Track(t) // every arena buffer must be back by test end
	for lvl := 0; lvl < 4; lvl++ {
		for _, kind := range corpus.Kinds() {
			src := corpus.Generate(kind, 300<<10, 5) // spans multiple blocks
			var wire bytes.Buffer
			w := mustWriter(t, &wire, WriterConfig{Static: true, StaticLevel: lvl})
			if _, err := w.Write(src); err != nil {
				t.Fatalf("level %d %s: write: %v", lvl, kind, err)
			}
			if err := w.Close(); err != nil {
				t.Fatalf("level %d %s: close: %v", lvl, kind, err)
			}
			out, err := io.ReadAll(mustReader(t, &wire))
			if err != nil {
				t.Fatalf("level %d %s: read: %v", lvl, kind, err)
			}
			if !bytes.Equal(out, src) {
				t.Fatalf("level %d %s: round trip mismatch", lvl, kind)
			}
		}
	}
}

func TestCompressionActuallyShrinksWire(t *testing.T) {
	src := corpus.Generate(corpus.High, 512<<10, 1)
	var wire bytes.Buffer
	w := mustWriter(t, &wire, WriterConfig{Static: true, StaticLevel: LevelLight})
	if _, err := w.Write(src); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if wire.Len() >= len(src)/2 {
		t.Fatalf("LIGHT on HIGH data: wire %d bytes for %d raw", wire.Len(), len(src))
	}
	stats := w.Stats()
	if stats.AppBytes != int64(len(src)) {
		t.Fatalf("AppBytes = %d, want %d", stats.AppBytes, len(src))
	}
	if stats.WireBytes != int64(wire.Len()) {
		t.Fatalf("WireBytes = %d, wire buffer has %d", stats.WireBytes, wire.Len())
	}
}

func TestRawFallbackOnIncompressibleBlocks(t *testing.T) {
	// Random data expands under LZ; the writer must store such blocks raw
	// so a frame never grows by more than the header.
	rnd := rand.New(rand.NewSource(3))
	src := make([]byte, 256<<10)
	rnd.Read(src)
	var wire bytes.Buffer
	w := mustWriter(t, &wire, WriterConfig{Static: true, StaticLevel: LevelLight})
	if _, err := w.Write(src); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	stats := w.Stats()
	if stats.RawFallbacks != stats.Blocks {
		t.Fatalf("expected all %d blocks to fall back to raw, got %d", stats.Blocks, stats.RawFallbacks)
	}
	maxWire := len(src) + int(stats.Blocks)*headerSize
	if wire.Len() > maxWire {
		t.Fatalf("wire %d exceeds raw+headers bound %d", wire.Len(), maxWire)
	}
	out, err := io.ReadAll(mustReader(t, &wire))
	if err != nil || !bytes.Equal(out, src) {
		t.Fatalf("round trip after fallback failed: %v", err)
	}
}

func TestPartialBlockFlush(t *testing.T) {
	var wire bytes.Buffer
	w := mustWriter(t, &wire, WriterConfig{Static: true, StaticLevel: 0})
	if _, err := w.Write([]byte("tiny")); err != nil {
		t.Fatal(err)
	}
	if wire.Len() != 0 {
		t.Fatal("partial block written without Flush")
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if wire.Len() == 0 {
		t.Fatal("Flush did not emit the partial block")
	}
	out, err := io.ReadAll(mustReader(t, &wire))
	if err != nil || string(out) != "tiny" {
		t.Fatalf("round trip: %q, %v", out, err)
	}
}

func TestWriteAfterCloseFails(t *testing.T) {
	var wire bytes.Buffer
	w := mustWriter(t, &wire, WriterConfig{})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("x")); err == nil {
		t.Fatal("write after close succeeded")
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// errWriter fails after n bytes.
type errWriter struct{ n int }

func (e *errWriter) Write(p []byte) (int, error) {
	if e.n <= 0 {
		return 0, errors.New("disk full")
	}
	e.n -= len(p)
	return len(p), nil
}

func TestUnderlyingErrorSticky(t *testing.T) {
	w := mustWriter(t, &errWriter{n: 20}, WriterConfig{Static: true, StaticLevel: 0, BlockSize: 64})
	data := bytes.Repeat([]byte("y"), 64)
	var sawErr error
	for i := 0; i < 10 && sawErr == nil; i++ {
		_, sawErr = w.Write(data)
	}
	if sawErr == nil {
		t.Fatal("underlying error never surfaced")
	}
	if _, err := w.Write(data); err == nil {
		t.Fatal("error not sticky")
	}
	if err := w.Flush(); err == nil {
		t.Fatal("Flush ignored sticky error")
	}
}

func TestAdaptiveLevelSwitchesMidStreamDecodable(t *testing.T) {
	// Drive the writer with a manual clock so every block boundary closes
	// a decision window, forcing frequent probing across levels; the
	// reader must decode the mixed-level stream transparently.
	clk := vclock.NewManual()
	src := corpus.Generate(corpus.Moderate, 1<<20, 9)
	var wire bytes.Buffer
	w := mustWriter(t, &wire, WriterConfig{Clock: clk, Window: time.Second, BlockSize: 32 << 10})
	for off := 0; off < len(src); off += 8 << 10 {
		end := off + 8<<10
		if end > len(src) {
			end = len(src)
		}
		if _, err := w.Write(src[off:end]); err != nil {
			t.Fatal(err)
		}
		clk.Advance(600 * time.Millisecond)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	stats := w.Stats()
	if stats.LevelSwitches == 0 {
		t.Fatal("no level switches happened; test is not exercising adaptation")
	}
	used := 0
	for _, n := range stats.BlocksPerLevel {
		if n > 0 {
			used++
		}
	}
	if used < 2 {
		t.Fatalf("only %d distinct levels used", used)
	}
	out, err := io.ReadAll(mustReader(t, &wire))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(out, src) {
		t.Fatal("mixed-level stream round trip mismatch")
	}
}

func TestOnWindowCallback(t *testing.T) {
	clk := vclock.NewManual()
	var windows []WindowStat
	var wire bytes.Buffer
	w := mustWriter(t, &wire, WriterConfig{
		Clock:    clk,
		Window:   time.Second,
		OnWindow: func(ws WindowStat) { windows = append(windows, ws) },
	})
	data := make([]byte, 1000)
	for i := 0; i < 5; i++ {
		if _, err := w.Write(data); err != nil {
			t.Fatal(err)
		}
		clk.Advance(time.Second)
		if _, err := w.Write(data); err != nil { // triggers window close
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if len(windows) < 5 {
		t.Fatalf("got %d windows, want >= 5", len(windows))
	}
	for _, ws := range windows[:5] {
		if ws.Elapsed < time.Second {
			t.Fatalf("window elapsed %v < configured t", ws.Elapsed)
		}
		if ws.Rate <= 0 {
			t.Fatalf("non-positive rate %v with data flowing", ws.Rate)
		}
	}
}

func TestStaticModeNeverSwitches(t *testing.T) {
	clk := vclock.NewManual()
	var wire bytes.Buffer
	w := mustWriter(t, &wire, WriterConfig{Static: true, StaticLevel: LevelMedium, Clock: clk, Window: time.Second})
	data := corpus.Generate(corpus.Moderate, 64<<10, 2)
	for i := 0; i < 20; i++ {
		if _, err := w.Write(data); err != nil {
			t.Fatal(err)
		}
		clk.Advance(2 * time.Second)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Stats().LevelSwitches != 0 {
		t.Fatal("static writer switched levels")
	}
	if w.Level() != LevelMedium {
		t.Fatalf("static level drifted to %d", w.Level())
	}
}

func TestReaderDetectsCorruption(t *testing.T) {
	src := corpus.Generate(corpus.Moderate, 64<<10, 4)
	var wire bytes.Buffer
	w := mustWriter(t, &wire, WriterConfig{Static: true, StaticLevel: LevelLight})
	if _, err := w.Write(src); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	good := wire.Bytes()

	corruptAt := func(i int) error {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0xA5
		_, err := io.ReadAll(&readerNoPanic{t: t, r: mustReader(t, bytes.NewReader(bad))})
		return err
	}
	// Corrupt a payload byte deep in the stream: CRC or codec must catch it.
	if err := corruptAt(len(good) / 2); err == nil {
		t.Fatal("payload corruption not detected")
	}
	// Corrupt the magic.
	if err := corruptAt(0); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("magic corruption: got %v", err)
	}
}

// readerNoPanic wraps a Reader and converts panics into test failures.
type readerNoPanic struct {
	t *testing.T
	r io.Reader
}

func (rp *readerNoPanic) Read(p []byte) (n int, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			rp.t.Fatalf("reader panicked: %v", rec)
		}
	}()
	return rp.r.Read(p)
}

func TestReaderDetectsTruncation(t *testing.T) {
	src := corpus.Generate(corpus.Moderate, 64<<10, 4)
	var wire bytes.Buffer
	w := mustWriter(t, &wire, WriterConfig{Static: true, StaticLevel: LevelLight})
	if _, err := w.Write(src); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	good := wire.Bytes()
	for _, cut := range []int{1, headerSize - 1, headerSize + 5, len(good) - 1} {
		r := mustReader(t, bytes.NewReader(good[:cut]))
		if _, err := io.ReadAll(r); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestReaderUnknownCodec(t *testing.T) {
	var hdr [headerSize]byte
	putHeader(hdr[:], header{codecID: 200, rawLen: 4, compLen: 4})
	data := append(hdr[:], 1, 2, 3, 4)
	r := mustReader(t, bytes.NewReader(data))
	if _, err := io.ReadAll(r); err == nil {
		t.Fatal("unknown codec accepted")
	}
}

func TestReaderRejectsOversizedHeader(t *testing.T) {
	var hdr [headerSize]byte
	putHeader(hdr[:], header{codecID: 0, rawLen: MaxBlockSize + 1, compLen: 16})
	r := mustReader(t, bytes.NewReader(hdr[:]))
	if _, err := io.ReadAll(r); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("oversized rawLen: got %v", err)
	}
}

func TestReaderEmptyStream(t *testing.T) {
	r := mustReader(t, bytes.NewReader(nil))
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("empty stream: %v", err)
	}
	if len(out) != 0 {
		t.Fatalf("empty stream produced %d bytes", len(out))
	}
}

// countingReader counts the Reads that reach it.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// TestReadEmptyDoesNotBlock: a zero-length Read answers from what the Reader
// already holds and never reads the source, as bufio.Reader does — at a
// block boundary over an idle connection it must not wait for a frame.
func TestReadEmptyDoesNotBlock(t *testing.T) {
	pr, pw := io.Pipe()
	defer pw.Close()
	idle := mustReader(t, pr)
	done := make(chan error, 1)
	go func() {
		_, err := idle.Read(nil)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Read(nil) on an idle source: %v", err)
		}
	case <-time.After(5 * time.Second):
		pw.CloseWithError(errors.New("released"))
		t.Fatal("Read(nil) blocked on an idle source")
	}

	const bs = 4096
	src := corpus.Generate(corpus.Moderate, 2*bs, 3)
	var wire bytes.Buffer
	w := mustWriter(t, &wire, WriterConfig{Static: true, StaticLevel: LevelLight, BlockSize: bs})
	if _, err := w.Write(src); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	cr := &countingReader{r: &wire}
	r := mustReader(t, cr)
	empty := func(when string, want error) {
		t.Helper()
		before := cr.reads
		if n, err := r.Read(nil); n != 0 || err != want {
			t.Fatalf("%s: Read(nil) = %d, %v; want 0, %v", when, n, err, want)
		}
		if cr.reads != before {
			t.Fatalf("%s: Read(nil) read the source", when)
		}
	}
	empty("before the first frame", nil)
	got := make([]byte, bs/2)
	if _, err := io.ReadFull(r, got); err != nil {
		t.Fatal(err)
	}
	empty("mid-block", nil)
	if _, err := io.ReadFull(r, got); err != nil {
		t.Fatal(err)
	}
	empty("at a block boundary", nil)
	if rest, err := io.ReadAll(r); err != nil || len(rest) != bs {
		t.Fatalf("rest: %d bytes, %v", len(rest), err)
	}
	empty("after EOF", io.EOF)
}

func TestReaderWriteTo(t *testing.T) {
	src := corpus.Generate(corpus.High, 300<<10, 6)
	var wire bytes.Buffer
	w := mustWriter(t, &wire, WriterConfig{Static: true, StaticLevel: LevelLight})
	if _, err := w.Write(src); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r := mustReader(t, &wire)
	var sink bytes.Buffer
	n, err := r.WriteTo(&sink)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(len(src)) || !bytes.Equal(sink.Bytes(), src) {
		t.Fatalf("WriteTo copied %d bytes, want %d", n, len(src))
	}
	if st := r.Stats(); st.AppBytes != int64(len(src)) || st.Blocks == 0 || st.WireBytes == 0 {
		t.Fatalf("stats: app=%d wire=%d blocks=%d", st.AppBytes, st.WireBytes, st.Blocks)
	}
}

// TestQuickRoundTripArbitraryChunking is the stream-level identity property:
// any data written in any chunking pattern and read in any chunking pattern
// survives unchanged.
func TestQuickRoundTripArbitraryChunking(t *testing.T) {
	prop := func(seed int64, blockExp uint8) bool {
		rnd := rand.New(rand.NewSource(seed))
		blockSize := 1 << (uint(blockExp)%8 + 6) // 64 B .. 8 KB
		size := rnd.Intn(100_000)
		src := corpus.Generate(corpus.Kind(rnd.Intn(3)), size, uint64(seed))
		var wire bytes.Buffer
		w, err := NewWriter(&wire, WriterConfig{BlockSize: blockSize, Clock: vclock.NewManual()})
		if err != nil {
			return false
		}
		for off := 0; off < len(src); {
			n := 1 + rnd.Intn(10_000)
			if off+n > len(src) {
				n = len(src) - off
			}
			if _, err := w.Write(src[off : off+n]); err != nil {
				return false
			}
			off += n
		}
		if err := w.Close(); err != nil {
			return false
		}
		r, err := NewReader(&wire)
		if err != nil {
			return false
		}
		var out []byte
		buf := make([]byte, 1+rnd.Intn(5000))
		for {
			n, err := r.Read(buf)
			out = append(out, buf[:n]...)
			if err == io.EOF {
				break
			}
			if err != nil {
				return false
			}
		}
		return bytes.Equal(out, src)
	}
	cfg := &quick.Config{MaxCount: 60}
	if testing.Short() {
		cfg.MaxCount = 15
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestStatsAccountingProperty: whatever is written in whatever chunking,
// AppBytes equals the bytes accepted, WireBytes equals what reached the
// destination, and per-level block counts sum to Blocks.
func TestStatsAccountingProperty(t *testing.T) {
	prop := func(seed int64, kindSel uint8, n uint32) bool {
		rnd := rand.New(rand.NewSource(seed))
		size := int(n % 300_000)
		src := corpus.Generate(corpus.Kind(int(kindSel)%3), size, uint64(seed))
		var wire bytes.Buffer
		w, err := NewWriter(&wire, WriterConfig{Clock: vclock.NewManual(), BlockSize: 8 << 10})
		if err != nil {
			return false
		}
		for off := 0; off < len(src); {
			c := 1 + rnd.Intn(30_000)
			if off+c > len(src) {
				c = len(src) - off
			}
			if _, err := w.Write(src[off : off+c]); err != nil {
				return false
			}
			off += c
		}
		if err := w.Close(); err != nil {
			return false
		}
		st := w.Stats()
		if st.AppBytes != int64(size) {
			return false
		}
		if st.WireBytes != int64(wire.Len()) {
			return false
		}
		var perLevel int64
		for _, b := range st.BlocksPerLevel {
			perLevel += b
		}
		return perLevel == st.Blocks
	}
	cfg := &quick.Config{MaxCount: 40}
	if testing.Short() {
		cfg.MaxCount = 10
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultLadderMatchesPaper(t *testing.T) {
	l := DefaultLadder()
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	want := []string{"NO", "LIGHT", "MEDIUM", "HEAVY"}
	got := l.Names()
	if len(got) != len(want) {
		t.Fatalf("ladder has %d levels, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("level %d named %q, want %q", i, got[i], want[i])
		}
	}
}

func BenchmarkWriterPerLevelPerKind(b *testing.B) {
	for lvl := 0; lvl < 4; lvl++ {
		for _, kind := range corpus.Kinds() {
			name := DefaultLadder()[lvl].Name + "/" + kind.String()
			b.Run(name, func(b *testing.B) {
				src := corpus.Generate(kind, 1<<20, 1)
				b.SetBytes(int64(len(src)))
				for i := 0; i < b.N; i++ {
					var wire countingDiscard
					w, _ := NewWriter(&wire, WriterConfig{Static: true, StaticLevel: lvl})
					if _, err := w.Write(src); err != nil {
						b.Fatal(err)
					}
					if err := w.Close(); err != nil {
						b.Fatal(err)
					}
					if i == 0 {
						b.ReportMetric(float64(wire.n)/float64(len(src)), "ratio")
					}
				}
			})
		}
	}
}

type countingDiscard struct{ n int64 }

func (c *countingDiscard) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

func BenchmarkWriterStaticLight(b *testing.B) {
	src := corpus.Generate(corpus.Moderate, 1<<20, 1)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w, _ := NewWriter(io.Discard, WriterConfig{Static: true, StaticLevel: LevelLight})
		if _, err := w.Write(src); err != nil {
			b.Fatal(err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriterAdaptive(b *testing.B) {
	src := corpus.Generate(corpus.Moderate, 1<<20, 1)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w, _ := NewWriter(io.Discard, WriterConfig{})
		if _, err := w.Write(src); err != nil {
			b.Fatal(err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReader(b *testing.B) {
	src := corpus.Generate(corpus.Moderate, 1<<20, 1)
	var wire bytes.Buffer
	w, _ := NewWriter(&wire, WriterConfig{Static: true, StaticLevel: LevelLight})
	if _, err := w.Write(src); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	data := wire.Bytes()
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, _ := NewReader(bytes.NewReader(data))
		if _, err := io.Copy(io.Discard, r); err != nil {
			b.Fatal(err)
		}
	}
}
