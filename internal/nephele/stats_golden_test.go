package nephele

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"adaptio/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// TestRenderGolden pins JobStats.Render byte-for-byte. The stats struct is
// built by hand (not by running a job) so the output is fully deterministic;
// the engine tests separately prove Execute fills the same struct from the
// per-job obs registry. Together they guarantee the obs refactor cannot
// silently change the report operators read.
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

// TestStatsDerivedFromMetrics proves the JobStats maps are a faithful view
// of the per-job obs registry: every number in Edges/Vertices must equal the
// value of the corresponding metric, and the task event log records one
// start and one completion per subtask.
func TestStatsDerivedFromMetrics(t *testing.T) {
	g := NewJobGraph("derive")
	src := g.AddVertex("src", SourceFunc(func(_ *TaskContext, emit func([]byte) error) error {
		if err := emit([]byte("aaaa")); err != nil {
			return err
		}
		return emit([]byte("bbbb"))
	}), 2)
	snk := g.AddVertex("snk", SinkFunc(func([]byte) error { return nil }), 1)
	if _, err := g.Connect(src, snk, ChannelSpec{Type: Network}); err != nil {
		t.Fatal(err)
	}
	var e Engine
	stats, err := e.Execute(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Metrics == nil {
		t.Fatal("JobStats.Metrics not set")
	}
	es, ok := stats.Edges["src->snk"]
	if !ok {
		t.Fatalf("edge stats missing: %v", stats.Edges)
	}
	counter := func(name string) int64 {
		m, ok := stats.Metrics.Get(name).(interface{ Value() int64 })
		if !ok {
			t.Fatalf("metric %q missing or wrong kind (have %v)", name, stats.Metrics.Names())
		}
		return m.Value()
	}
	if got := counter("nephele.edge.src->snk.records"); got != es.Records || es.Records != 4 {
		t.Fatalf("records: metric %d, stats %d, want 4", got, es.Records)
	}
	if got := counter("nephele.edge.src->snk.app_bytes"); got != es.AppBytes {
		t.Fatalf("app_bytes: metric %d, stats %d", got, es.AppBytes)
	}
	if got := counter("nephele.edge.src->snk.wire_bytes"); got != es.WireBytes {
		t.Fatalf("wire_bytes: metric %d, stats %d", got, es.WireBytes)
	}
	vs := stats.Vertices["src"]
	if got := counter("nephele.vertex.src.subtasks"); got != int64(vs.Subtasks) || vs.Subtasks != 2 {
		t.Fatalf("subtasks: metric %d, stats %d, want 2", got, vs.Subtasks)
	}
	if got := counter("nephele.vertex.src.total_ns"); got != int64(vs.Total) {
		t.Fatalf("total_ns: metric %d, stats %v", got, vs.Total)
	}
	if got := counter("nephele.vertex.src.busiest_ns"); got != int64(vs.Busiest) {
		t.Fatalf("busiest_ns: metric %d, stats %v", got, vs.Busiest)
	}
	if vs.Total < vs.Busiest || vs.Busiest <= 0 {
		t.Fatalf("vertex runtimes implausible: busiest %v total %v", vs.Busiest, vs.Total)
	}

	logm, ok := stats.Metrics.Get("nephele.tasks").(*obs.EventLog)
	if !ok {
		t.Fatal("nephele.tasks event log missing")
	}
	var starts, dones, fails int
	for _, ev := range logm.Events() {
		switch ev.Kind {
		case "task_start":
			starts++
		case "task_done":
			dones++
		case "task_failed":
			fails++
		}
	}
	if starts != 3 || dones != 3 || fails != 0 {
		t.Fatalf("task transitions: %d starts, %d dones, %d fails; want 3/3/0", starts, dones, fails)
	}
}
