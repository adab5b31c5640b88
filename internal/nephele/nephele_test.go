package nephele_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adaptio/internal/block"
	"adaptio/internal/block/blocktest"
	"adaptio/internal/corpus"
	"adaptio/internal/faultio/leakcheck"
	"adaptio/internal/nephele"
)

// ---------- record framing ----------

func TestRecordRoundTrip(t *testing.T) {
	blocktest.Track(t) // the EOF return must recycle the record buffer
	var buf bytes.Buffer
	w := nephele.NewRecordWriter(&buf)
	records := [][]byte{
		[]byte("first"),
		{},
		[]byte("third record with more payload"),
		bytes.Repeat([]byte{0xAB}, 100000),
	}
	for _, r := range records {
		if err := w.WriteRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	var wantBytes int64
	for _, r := range records {
		wantBytes += int64(len(r))
	}
	recs, bytesW := w.Counters()
	if recs != int64(len(records)) {
		t.Fatalf("records counter = %d", recs)
	}
	if bytesW != wantBytes {
		t.Fatalf("bytes counter = %d, want %d", bytesW, wantBytes)
	}
	r := nephele.NewRecordReader(&buf)
	for i, want := range records {
		got, err := r.ReadRecord()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d mismatch (%d vs %d bytes)", i, len(got), len(want))
		}
	}
	if _, err := r.ReadRecord(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
	if r.Records() != int64(len(records)) {
		t.Fatalf("reader counter = %d", r.Records())
	}
}

// recordWatch serves wire and, whenever the reader asks for the first
// length byte of a record (or for a byte past the last one), checks that no
// arena buffer acquired since snap is still held.
type recordWatch struct {
	t      *testing.T
	wire   []byte
	starts map[int]bool
	pos    int
	snap   block.Snapshot
	asked  int
}

func (w *recordWatch) Read(p []byte) (int, error) {
	if w.starts[w.pos] || w.pos == len(w.wire) {
		w.asked++
		if held := block.LeakedSince(w.snap); len(held) > 0 {
			w.t.Fatalf("asked for the record at offset %d holding %d buffer(s), acquired at:\n%s",
				w.pos, len(held), held[0])
		}
	}
	if w.pos == len(w.wire) {
		return 0, io.EOF
	}
	n := copy(p, w.wire[w.pos:])
	w.pos += n
	return n, nil
}

// TestRecordReaderHoldsNothingBetweenRecords: a ReadRecord call releases the
// record before it, so the reader asks for the next length byte holding no
// arena buffer, however the record sizes step across the arena's classes.
func TestRecordReaderHoldsNothingBetweenRecords(t *testing.T) {
	blocktest.Track(t)
	var buf bytes.Buffer
	w := nephele.NewRecordWriter(&buf)
	starts := map[int]bool{}
	sizes := []int{5, 0, 70000, 100, 200000, 4096, 1}
	for i, n := range sizes {
		starts[buf.Len()] = true
		if err := w.WriteRecord(bytes.Repeat([]byte{byte(i)}, n)); err != nil {
			t.Fatal(err)
		}
	}
	snap, stop := block.StartTracking()
	defer stop()
	src := &recordWatch{t: t, wire: buf.Bytes(), starts: starts, snap: snap}
	r := nephele.NewRecordReader(src)
	for i, n := range sizes {
		rec, err := r.ReadRecord()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(rec, bytes.Repeat([]byte{byte(i)}, n)) {
			t.Fatalf("record %d differs", i)
		}
	}
	if _, err := r.ReadRecord(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
	if src.asked != len(sizes)+1 {
		t.Errorf("reader asked for %d records, want %d", src.asked, len(sizes)+1)
	}
}

func TestRecordTooLarge(t *testing.T) {
	w := nephele.NewRecordWriter(io.Discard)
	if err := w.WriteRecord(make([]byte, nephele.MaxRecordSize+1)); !errors.Is(err, nephele.ErrRecordTooLarge) {
		t.Fatalf("oversized record: %v", err)
	}
}

func TestRecordTruncatedStream(t *testing.T) {
	var buf bytes.Buffer
	w := nephele.NewRecordWriter(&buf)
	if err := w.WriteRecord([]byte("hello world")); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{1, len(data) - 3} {
		r := nephele.NewRecordReader(bytes.NewReader(data[:cut]))
		if _, err := r.ReadRecord(); err == nil || err == io.EOF {
			t.Fatalf("truncation at %d undetected: %v", cut, err)
		}
	}
}

func TestRecordCorruptLength(t *testing.T) {
	// A huge uvarint length must be rejected, not allocated.
	data := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}
	r := nephele.NewRecordReader(bytes.NewReader(data))
	if _, err := r.ReadRecord(); err == nil {
		t.Fatal("corrupt length accepted")
	}
}

// ---------- graph construction ----------

func nopSource() nephele.TaskFactory {
	return nephele.SourceFunc(func(ctx *nephele.TaskContext, emit func([]byte) error) error {
		return nil
	})
}

func nopSink() nephele.TaskFactory {
	return nephele.SinkFunc(func([]byte) error { return nil })
}

func TestGraphValidation(t *testing.T) {
	g := nephele.NewJobGraph("test")
	if err := g.Validate(); err == nil {
		t.Error("empty graph accepted")
	}
	a := g.AddVertex("a", nopSource(), 1)
	b := g.AddVertex("b", nopSink(), 1)
	if _, err := g.Connect(a, a, nephele.ChannelSpec{Type: nephele.Network}); err == nil {
		t.Error("self loop accepted")
	}
	if _, err := g.Connect(nil, b, nephele.ChannelSpec{}); err == nil {
		t.Error("nil vertex accepted")
	}
	other := nephele.NewJobGraph("other")
	c := other.AddVertex("c", nopSink(), 1)
	if _, err := g.Connect(a, c, nephele.ChannelSpec{Type: nephele.Network}); err == nil {
		t.Error("cross-graph edge accepted")
	}
	if _, err := g.Connect(a, b, nephele.ChannelSpec{Type: nephele.ChannelType(9)}); err == nil {
		t.Error("unknown channel type accepted")
	}
	if _, err := g.Connect(a, b, nephele.ChannelSpec{Type: nephele.Network}); err != nil {
		t.Fatalf("valid edge rejected: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
}

func TestGraphCycleDetection(t *testing.T) {
	g := nephele.NewJobGraph("cyclic")
	a := g.AddVertex("a", nopSink(), 1)
	b := g.AddVertex("b", nopSink(), 1)
	c := g.AddVertex("c", nopSink(), 1)
	must := func(_ *nephele.Edge, err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(g.Connect(a, b, nephele.ChannelSpec{Type: nephele.Network}))
	must(g.Connect(b, c, nephele.ChannelSpec{Type: nephele.Network}))
	must(g.Connect(c, a, nephele.ChannelSpec{Type: nephele.Network}))
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cycle undetected: %v", err)
	}
}

func TestGraphZeroParallelism(t *testing.T) {
	g := nephele.NewJobGraph("bad")
	g.AddVertex("a", nopSource(), 0)
	if err := g.Validate(); err == nil {
		t.Fatal("zero parallelism accepted")
	}
}

// ---------- end-to-end execution ----------

// runPipeline builds sender -> receiver over the given channel spec,
// streams the supplied records, and returns what the receiver saw plus the
// job stats.
func runPipeline(t *testing.T, spec nephele.ChannelSpec, records [][]byte) ([][]byte, *nephele.JobStats) {
	t.Helper()
	g := nephele.NewJobGraph("pipeline")
	src := g.AddVertex("sender", nephele.SourceFunc(func(ctx *nephele.TaskContext, emit func([]byte) error) error {
		for _, r := range records {
			if err := emit(r); err != nil {
				return err
			}
		}
		return nil
	}), 1)
	var mu sync.Mutex
	var got [][]byte
	dst := g.AddVertex("receiver", nephele.SinkFunc(func(rec []byte) error {
		mu.Lock()
		got = append(got, append([]byte(nil), rec...))
		mu.Unlock()
		return nil
	}), 1)
	if _, err := g.Connect(src, dst, spec); err != nil {
		t.Fatal(err)
	}
	stats, err := (&nephele.Engine{TempDir: t.TempDir()}).Execute(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	return got, stats
}

func testRecords(n, size int) [][]byte {
	data := corpus.Generate(corpus.Moderate, n*size, 21)
	recs := make([][]byte, n)
	for i := range recs {
		recs[i] = data[i*size : (i+1)*size]
	}
	return recs
}

func TestPipelineAllChannelTypes(t *testing.T) {
	leakcheck.Check(t)
	blocktest.Track(t) // channel queues and record readers must recycle all buffers
	records := testRecords(200, 1000)
	for _, typ := range []nephele.ChannelType{nephele.Network, nephele.File} {
		t.Run(typ.String(), func(t *testing.T) {
			got, stats := runPipeline(t, nephele.ChannelSpec{Type: typ}, records)
			if len(got) != len(records) {
				t.Fatalf("received %d of %d records", len(got), len(records))
			}
			for i := range got {
				if !bytes.Equal(got[i], records[i]) {
					t.Fatalf("record %d corrupted", i)
				}
			}
			es := stats.Edges["sender->receiver"]
			if es.Records != int64(len(records)) {
				t.Fatalf("stats records = %d", es.Records)
			}
			if es.AppBytes != int64(200*1000) {
				t.Fatalf("stats app bytes = %d", es.AppBytes)
			}
			if es.WireBytes < es.AppBytes {
				t.Fatalf("uncompressed wire bytes %d below app bytes %d", es.WireBytes, es.AppBytes)
			}
			for _, name := range []string{"sender", "receiver"} {
				vs, ok := stats.Vertices[name]
				if !ok || vs.Subtasks != 1 || vs.Total <= 0 || vs.Busiest > vs.Total {
					t.Fatalf("vertex stats for %s broken: %+v", name, vs)
				}
			}
		})
	}
}

func TestPipelineCompressionModes(t *testing.T) {
	leakcheck.Check(t)
	blocktest.Track(t)
	records := testRecords(300, 1024)
	specs := map[string]nephele.ChannelSpec{
		"network-static-light": {Type: nephele.Network, Compression: nephele.CompressionStatic, StaticLevel: 1},
		"network-adaptive":     {Type: nephele.Network, Compression: nephele.CompressionAdaptive},
		"file-static-medium":   {Type: nephele.File, Compression: nephele.CompressionStatic, StaticLevel: 2},
		"file-adaptive":        {Type: nephele.File, Compression: nephele.CompressionAdaptive},
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			got, stats := runPipeline(t, spec, records)
			if len(got) != len(records) {
				t.Fatalf("received %d of %d records", len(got), len(records))
			}
			for i := range got {
				if !bytes.Equal(got[i], records[i]) {
					t.Fatalf("record %d corrupted", i)
				}
			}
			es := stats.Edges["sender->receiver"]
			if spec.Compression == nephele.CompressionStatic && es.WireBytes >= es.AppBytes {
				t.Fatalf("compressed channel did not shrink: wire %d vs app %d", es.WireBytes, es.AppBytes)
			}
		})
	}
}

// TestTransparency is the paper's integration claim: the same task code runs
// unchanged whether compression is off, static, or adaptive.
func TestTransparency(t *testing.T) {
	leakcheck.Check(t)
	records := testRecords(100, 2048)
	var reference [][]byte
	for _, spec := range []nephele.ChannelSpec{
		{Type: nephele.Network, Compression: nephele.CompressionOff},
		{Type: nephele.Network, Compression: nephele.CompressionStatic, StaticLevel: 3},
		{Type: nephele.Network, Compression: nephele.CompressionAdaptive},
	} {
		got, _ := runPipeline(t, spec, records)
		if reference == nil {
			reference = got
			continue
		}
		if len(got) != len(reference) {
			t.Fatalf("record count differs across compression modes")
		}
		for i := range got {
			if !bytes.Equal(got[i], reference[i]) {
				t.Fatalf("record %d differs across compression modes", i)
			}
		}
	}
}

func TestFanOutFanIn(t *testing.T) {
	leakcheck.Check(t)
	// 1 source -> 4 parallel mappers -> 1 sink; records distributed
	// round-robin and merged.
	const n = 400
	g := nephele.NewJobGraph("fan")
	src := g.AddVertex("src", nephele.SourceFunc(func(ctx *nephele.TaskContext, emit func([]byte) error) error {
		for i := 0; i < n; i++ {
			if err := emit([]byte(fmt.Sprintf("rec-%04d", i))); err != nil {
				return err
			}
		}
		return nil
	}), 1)
	mapper := g.AddVertex("map", nephele.MapFunc(func(rec []byte, emit func([]byte) error) error {
		return emit(append([]byte("mapped-"), rec...))
	}), 4)
	var count int64
	sink := g.AddVertex("sink", nephele.SinkFunc(func(rec []byte) error {
		if !bytes.HasPrefix(rec, []byte("mapped-rec-")) {
			return fmt.Errorf("unexpected record %q", rec)
		}
		atomic.AddInt64(&count, 1)
		return nil
	}), 1)
	if _, err := g.Connect(src, mapper, nephele.ChannelSpec{Type: nephele.Network}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Connect(mapper, sink, nephele.ChannelSpec{Type: nephele.Network, Compression: nephele.CompressionAdaptive}); err != nil {
		t.Fatal(err)
	}
	if _, err := (&nephele.Engine{}).Execute(context.Background(), g); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("sink saw %d of %d records", count, n)
	}
}

func TestDiamondTopology(t *testing.T) {
	leakcheck.Check(t)
	// src -> (left, right) -> sink: two edges into one sink vertex.
	const n = 100
	g := nephele.NewJobGraph("diamond")
	src := g.AddVertex("src", nephele.SourceFunc(func(ctx *nephele.TaskContext, emit func([]byte) error) error {
		for i := 0; i < n; i++ {
			if err := emit([]byte{byte(i)}); err != nil {
				return err
			}
		}
		return nil
	}), 1)
	double := func(rec []byte, emit func([]byte) error) error { return emit(rec) }
	left := g.AddVertex("left", nephele.MapFunc(double), 1)
	right := g.AddVertex("right", nephele.MapFunc(double), 1)
	var count int64
	sink := g.AddVertex("sink", nephele.SinkFunc(func(rec []byte) error {
		atomic.AddInt64(&count, 1)
		return nil
	}), 1)
	for _, pair := range [][2]*nephele.Vertex{{src, left}, {src, right}} {
		if _, err := g.Connect(pair[0], pair[1], nephele.ChannelSpec{Type: nephele.Network}); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range []*nephele.Vertex{left, right} {
		if _, err := g.Connect(v, sink, nephele.ChannelSpec{Type: nephele.Network}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := (&nephele.Engine{}).Execute(context.Background(), g); err != nil {
		t.Fatal(err)
	}
	// Source emits n records per output edge gate... each edge gets all n
	// records? No: the source writes to gate 0 only; the second edge gets
	// nothing. Expect n records via left only.
	if count != n {
		t.Fatalf("sink saw %d records, want %d", count, n)
	}
}

func TestAccessors(t *testing.T) {
	g := nephele.NewJobGraph("acc")
	v := g.AddVertex("v", nopSource(), 3)
	if v.Name() != "v" || v.Parallelism() != 3 {
		t.Fatalf("vertex accessors wrong: %q/%d", v.Name(), v.Parallelism())
	}
	s := g.AddVertex("s", nopSink(), 1)
	e, err := g.Connect(v, s, nephele.ChannelSpec{Type: nephele.Network})
	if err != nil {
		t.Fatal(err)
	}
	if e.Label() != "v->s" || e.Spec().Type != nephele.Network {
		t.Fatalf("edge accessors wrong: %q/%v", e.Label(), e.Spec().Type)
	}
	if g.Name() != "acc" {
		t.Fatalf("graph name %q", g.Name())
	}
}

func TestTaskContextContext(t *testing.T) {
	g := nephele.NewJobGraph("ctx")
	saw := make(chan bool, 1)
	g.AddVertex("probe", nephele.TaskFactory(func() nephele.Task {
		return ctxProbeTask{saw}
	}), 1)
	if _, err := (&nephele.Engine{}).Execute(context.Background(), g); err != nil {
		t.Fatal(err)
	}
	if !<-saw {
		t.Fatal("task saw nil context")
	}
}

type ctxProbeTask struct{ saw chan bool }

func (p ctxProbeTask) Run(ctx *nephele.TaskContext) error {
	p.saw <- ctx.Context() != nil && ctx.Context().Err() == nil
	return nil
}

// TestAbortUnblocksBlockedWriter: a producer blocked on a full socket must
// be released when a peer task fails.
func TestAbortUnblocksBlockedWriter(t *testing.T) {
	leakcheck.Check(t)
	var emitted atomic.Int64
	g := nephele.NewJobGraph("abort")
	src := g.AddVertex("src", nephele.SourceFunc(func(ctx *nephele.TaskContext, emit func([]byte) error) error {
		for {
			if err := emit(make([]byte, 64<<10)); err != nil {
				return err // must eventually fire when the job aborts
			}
			emitted.Add(1)
		}
	}), 1)
	sink := g.AddVertex("sink", nephele.TaskFactory(func() nephele.Task { return failWhenBlockedTask{&emitted} }), 1)
	if _, err := g.Connect(src, sink, nephele.ChannelSpec{Type: nephele.Network}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := (&nephele.Engine{}).Execute(context.Background(), g)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "failed with the producer blocked") {
			t.Fatalf("unexpected result: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("blocked producer never unblocked after task failure")
	}
}

// failWhenBlockedTask reads nothing, so the socket fills; once the producer's
// count has stopped moving (it is blocked in a write), the task fails.
type failWhenBlockedTask struct{ emitted *atomic.Int64 }

func (f failWhenBlockedTask) Run(*nephele.TaskContext) error {
	last := int64(-1)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		time.Sleep(100 * time.Millisecond)
		n := f.emitted.Load()
		if n > 0 && n == last {
			break
		}
		last = n
	}
	return errors.New("failed with the producer blocked")
}

func TestStatsRender(t *testing.T) {
	records := testRecords(50, 100)
	_, stats := runPipeline(t, nephele.ChannelSpec{Type: nephele.Network, Compression: nephele.CompressionStatic, StaticLevel: 1}, records)
	out := stats.Render()
	for _, want := range []string{"job finished", "sender->receiver", "vertex", "sender", "receiver", "ratio"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFileChannelFanOut(t *testing.T) {
	// File channels with parallel consumers: one staging file per link,
	// all cleaned up after execution.
	const n = 120
	g := nephele.NewJobGraph("filefan")
	src := g.AddVertex("src", nephele.SourceFunc(func(ctx *nephele.TaskContext, emit func([]byte) error) error {
		for i := 0; i < n; i++ {
			if err := emit([]byte{byte(i)}); err != nil {
				return err
			}
		}
		return nil
	}), 1)
	var count int64
	sink := g.AddVertex("sink", nephele.SinkFunc(func([]byte) error {
		atomic.AddInt64(&count, 1)
		return nil
	}), 3)
	if _, err := g.Connect(src, sink, nephele.ChannelSpec{Type: nephele.File}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := (&nephele.Engine{TempDir: dir}).Execute(context.Background(), g); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("sink saw %d of %d records", count, n)
	}
	// Staging files removed.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("%d staging files left behind", len(entries))
	}
}

func TestDOTExport(t *testing.T) {
	g := nephele.NewJobGraph("viz")
	a := g.AddVertex("gen", nopSource(), 2)
	b := g.AddVertex("agg", nopSink(), 1)
	if _, err := g.Connect(a, b, nephele.ChannelSpec{Type: nephele.Network, Compression: nephele.CompressionAdaptive}); err != nil {
		t.Fatal(err)
	}
	dot := g.DOT()
	for _, want := range []string{
		`digraph "viz"`, `"gen" [label="gen\nx2"]`, `"gen" -> "agg"`,
		"network", "adaptive",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
	// Deterministic output.
	if g.DOT() != dot {
		t.Error("DOT output not deterministic")
	}
}

func TestTaskErrorPropagates(t *testing.T) {
	leakcheck.Check(t)
	g := nephele.NewJobGraph("err")
	src := g.AddVertex("src", nephele.SourceFunc(func(ctx *nephele.TaskContext, emit func([]byte) error) error {
		for i := 0; ; i++ {
			if err := emit(make([]byte, 1024)); err != nil {
				return err
			}
		}
	}), 1)
	sink := g.AddVertex("sink", nephele.SinkFunc(func(rec []byte) error {
		return errors.New("sink exploded")
	}), 1)
	if _, err := g.Connect(src, sink, nephele.ChannelSpec{Type: nephele.Network}); err != nil {
		t.Fatal(err)
	}
	_, err := (&nephele.Engine{}).Execute(context.Background(), g)
	if err == nil || !strings.Contains(err.Error(), "sink exploded") {
		t.Fatalf("error not propagated: %v", err)
	}
}

func TestTaskPanicRecovered(t *testing.T) {
	leakcheck.Check(t)
	g := nephele.NewJobGraph("panic")
	g.AddVertex("boom", nephele.TaskFactory(func() nephele.Task { return panicTask{} }), 1)
	_, err := (&nephele.Engine{}).Execute(context.Background(), g)
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panic not converted to error: %v", err)
	}
}

type panicTask struct{}

func (panicTask) Run(*nephele.TaskContext) error { panic("kaboom") }

func TestContextCancellation(t *testing.T) {
	leakcheck.Check(t)
	g := nephele.NewJobGraph("cancel")
	src := g.AddVertex("src", nephele.SourceFunc(func(ctx *nephele.TaskContext, emit func([]byte) error) error {
		for {
			if err := emit(make([]byte, 4096)); err != nil {
				return err
			}
		}
	}), 1)
	sink := g.AddVertex("sink", nephele.SinkFunc(func(rec []byte) error {
		time.Sleep(time.Millisecond)
		return nil
	}), 1)
	if _, err := g.Connect(src, sink, nephele.ChannelSpec{Type: nephele.Network}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := (&nephele.Engine{}).Execute(ctx, g)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled job reported success")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancellation did not unblock the job")
	}
}

func TestConsumerStopsEarlyProducerStillCompletes(t *testing.T) {
	leakcheck.Check(t)
	// A sink that returns after a few records without error would stall
	// the producer if the engine did not drain the channel.
	g := nephele.NewJobGraph("early")
	src := g.AddVertex("src", nephele.SourceFunc(func(ctx *nephele.TaskContext, emit func([]byte) error) error {
		for i := 0; i < 5000; i++ {
			if err := emit(make([]byte, 4096)); err != nil {
				return err
			}
		}
		return nil
	}), 1)
	sink := g.AddVertex("sink", nephele.TaskFactory(func() nephele.Task { return earlyStopTask{} }), 1)
	if _, err := g.Connect(src, sink, nephele.ChannelSpec{Type: nephele.Network}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := (&nephele.Engine{}).Execute(context.Background(), g)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("early-stopping consumer failed the job: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("job hung with early-stopping consumer")
	}
}

type earlyStopTask struct{}

func (earlyStopTask) Run(ctx *nephele.TaskContext) error {
	for i := 0; i < 3; i++ {
		if _, err := ctx.Input(0).ReadRecord(); err != nil {
			return err
		}
	}
	return nil // stop early; engine must drain
}

// TestPaperSampleJob reproduces the Section IV-A setup in miniature: a
// sender task repeatedly writing a test file over an adaptively compressed
// TCP network channel to a receiver task, then verifies volume accounting.
func TestPaperSampleJob(t *testing.T) {
	leakcheck.Check(t)
	file := corpus.GenerateFile(corpus.High, 1)
	const repeats = 8
	g := nephele.NewJobGraph("sample-job")
	src := g.AddVertex("sender", nephele.SourceFunc(func(ctx *nephele.TaskContext, emit func([]byte) error) error {
		for i := 0; i < repeats; i++ {
			for off := 0; off < len(file); off += 64 << 10 {
				end := off + 64<<10
				if end > len(file) {
					end = len(file)
				}
				if err := emit(file[off:end]); err != nil {
					return err
				}
			}
		}
		return nil
	}), 1)
	var received int64
	dst := g.AddVertex("receiver", nephele.SinkFunc(func(rec []byte) error {
		atomic.AddInt64(&received, int64(len(rec)))
		return nil
	}), 1)
	if _, err := g.Connect(src, dst, nephele.ChannelSpec{
		Type:        nephele.Network,
		Compression: nephele.CompressionAdaptive,
		Window:      50 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	stats, err := (&nephele.Engine{}).Execute(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(repeats * len(file))
	if received != want {
		t.Fatalf("receiver got %d bytes, want %d", received, want)
	}
	es := stats.Edges["sender->receiver"]
	if es.AppBytes != want {
		t.Fatalf("edge app bytes %d, want %d", es.AppBytes, want)
	}
	// Over an uncontended loopback link the network is effectively free
	// and compression is pure CPU cost, so the rate-based model should
	// settle at (or near) level 0: the wire volume must not balloon above
	// the app volume by more than framing overhead.
	if es.WireBytes > es.AppBytes+es.AppBytes/50 {
		t.Fatalf("adaptive channel expanded data: wire %d of %d", es.WireBytes, es.AppBytes)
	}
}

// TestPaperSampleJobStaticHeavyCompresses verifies the compression path
// itself moves fewer bytes: the same job with a pinned LIGHT level must
// shrink the HIGH-compressibility wire volume dramatically.
func TestPaperSampleJobStaticLightCompresses(t *testing.T) {
	file := corpus.GenerateFile(corpus.High, 1)
	g := nephele.NewJobGraph("sample-static")
	src := g.AddVertex("sender", nephele.SourceFunc(func(ctx *nephele.TaskContext, emit func([]byte) error) error {
		for off := 0; off < len(file); off += 64 << 10 {
			end := off + 64<<10
			if end > len(file) {
				end = len(file)
			}
			if err := emit(file[off:end]); err != nil {
				return err
			}
		}
		return nil
	}), 1)
	dst := g.AddVertex("receiver", nephele.SinkFunc(func([]byte) error { return nil }), 1)
	if _, err := g.Connect(src, dst, nephele.ChannelSpec{
		Type:        nephele.Network,
		Compression: nephele.CompressionStatic,
		StaticLevel: 1,
	}); err != nil {
		t.Fatal(err)
	}
	stats, err := (&nephele.Engine{}).Execute(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	es := stats.Edges["sender->receiver"]
	if es.WireBytes >= es.AppBytes/2 {
		t.Fatalf("LIGHT on HIGH data: wire %d of %d", es.WireBytes, es.AppBytes)
	}
}

func BenchmarkNetworkChannelAdaptive(b *testing.B) {
	data := corpus.Generate(corpus.Moderate, 1<<20, 1)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		g := nephele.NewJobGraph("bench")
		src := g.AddVertex("src", nephele.SourceFunc(func(ctx *nephele.TaskContext, emit func([]byte) error) error {
			for off := 0; off < len(data); off += 32 << 10 {
				if err := emit(data[off : off+32<<10]); err != nil {
					return err
				}
			}
			return nil
		}), 1)
		sink := g.AddVertex("sink", nephele.SinkFunc(func([]byte) error { return nil }), 1)
		if _, err := g.Connect(src, sink, nephele.ChannelSpec{Type: nephele.Network, Compression: nephele.CompressionAdaptive}); err != nil {
			b.Fatal(err)
		}
		if _, err := (&nephele.Engine{}).Execute(context.Background(), g); err != nil {
			b.Fatal(err)
		}
	}
}

// TestJobsCloseTheirDescriptors runs five jobs per case, each with two links
// that carry more records than an input gate buffers, with the collector off,
// so a socket or file the engine forgets stays open (both only close
// themselves from a finalizer), and counts /proc/self/fd before and after.
func TestJobsCloseTheirDescriptors(t *testing.T) {
	if _, err := os.ReadDir("/proc/self/fd"); err != nil {
		t.Skip("no /proc/self/fd to count descriptors in")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	openFDs := func() int {
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(fds)
	}
	for _, typ := range []nephele.ChannelType{nephele.Network, nephele.File} {
		for _, sinkFails := range []bool{false, true} {
			name := typ.String() + "/sink-succeeds"
			if sinkFails {
				name = typ.String() + "/sink-fails"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				job := func() error {
					g := nephele.NewJobGraph("fds")
					src := g.AddVertex("src", nephele.SourceFunc(func(ctx *nephele.TaskContext, emit func([]byte) error) error {
						for i := 0; i < 1000; i++ {
							if err := emit(make([]byte, 1024)); err != nil {
								return err
							}
						}
						return nil
					}), 1)
					sink := g.AddVertex("sink", nephele.SinkFunc(func([]byte) error {
						if sinkFails {
							return errors.New("sink failed")
						}
						return nil
					}), 2)
					if _, err := g.Connect(src, sink, nephele.ChannelSpec{Type: typ}); err != nil {
						t.Fatal(err)
					}
					_, err := (&nephele.Engine{TempDir: dir}).Execute(context.Background(), g)
					return err
				}
				job() // the first job opens what the runtime keeps, such as its poller
				before := openFDs()
				for i := 0; i < 5; i++ {
					if err := job(); (err != nil) != sinkFails {
						t.Fatalf("job %d: %v", i, err)
					}
				}
				// A failed job returns before its abandoned gate goroutines do.
				n := openFDs()
				for deadline := time.Now().Add(2 * time.Second); n > before && time.Now().Before(deadline); n = openFDs() {
					time.Sleep(10 * time.Millisecond)
				}
				if n > before {
					t.Fatalf("%d descriptors left open after five jobs", n-before)
				}
			})
		}
	}
}
