package nephele

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// TestRenderGolden pins JobStats.Render byte-for-byte. The stats struct is
// built by hand (not by running a job) so the output is fully deterministic;
// TestJobStatsTotals separately checks the totals Execute fills in.
func TestRenderGolden(t *testing.T) {
	s := &JobStats{
		Duration: 1234567890 * time.Nanosecond, // renders as 1.234567s rounded
		Edges: map[string]EdgeStats{
			"producer->consumer": {
				Records:       1000,
				AppBytes:      128 << 20,
				WireBytes:     37 << 20,
				LevelSwitches: 6,
			},
			"consumer->sink": {
				Records:   1000,
				AppBytes:  64 << 20,
				WireBytes: 64 << 20,
			},
			"empty->edge": {},
		},
		Vertices: map[string]VertexStats{
			"producer": {Subtasks: 4, Busiest: 2 * time.Second, Total: 7 * time.Second},
			"consumer": {Subtasks: 2, Busiest: 1500 * time.Millisecond, Total: 2900 * time.Millisecond},
			"sink":     {Subtasks: 1, Busiest: 123 * time.Millisecond, Total: 123 * time.Millisecond},
		},
	}
	got := []byte(s.Render())

	path := filepath.Join("testdata", "render.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if string(got) != string(want) {
		t.Fatalf("Render output differs from %s (run with -update after intentional changes)\ngot:\n%s\nwant:\n%s",
			path, got, want)
	}
}

// TestJobStatsTotals checks the totals Execute accumulates: two producers
// each send one 4 B record over each of two uncompressed edges to the same
// consumer, which sum into one label, and a third edge carries nothing.
func TestJobStatsTotals(t *testing.T) {
	g := NewJobGraph("totals")
	src := g.AddVertex("src", SourceFunc(func(ctx *TaskContext, emit func([]byte) error) error {
		if err := emit([]byte("aaaa")); err != nil {
			return err
		}
		return ctx.Output(1).WriteRecord([]byte("bbbb"))
	}), 2)
	snk := g.AddVertex("snk", SinkFunc(func([]byte) error { return nil }), 1)
	idle := g.AddVertex("idle", SinkFunc(func([]byte) error { return nil }), 1)
	for _, to := range []*Vertex{snk, snk, idle} {
		if _, err := g.Connect(src, to, ChannelSpec{Type: Network}); err != nil {
			t.Fatal(err)
		}
	}
	var e Engine
	stats, err := e.Execute(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}

	// A record of 4 B travels as a 1 B length prefix and its payload.
	want := map[string]EdgeStats{
		"src->snk":  {Records: 4, AppBytes: 16, WireBytes: 20},
		"src->idle": {},
	}
	if !reflect.DeepEqual(stats.Edges, want) {
		t.Errorf("edges %+v, want %+v", stats.Edges, want)
	}
	if n := len(stats.Vertices); n != 3 {
		t.Errorf("%d vertices listed, want 3: %+v", n, stats.Vertices)
	}
	vs := stats.Vertices["src"]
	if vs.Subtasks != 2 || vs.Busiest <= 0 || vs.Busiest > vs.Total {
		t.Errorf("src %+v, want 2 subtasks and 0 < busiest <= total", vs)
	}
	if stats.Duration < vs.Busiest {
		t.Errorf("job took %v, less than its busiest subtask %v", stats.Duration, vs.Busiest)
	}
}
