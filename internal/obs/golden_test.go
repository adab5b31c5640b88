package obs

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// goldenCompare checks got against testdata/<name>, rewriting the file when
// -update is set.
func goldenCompare(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
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
		t.Fatalf("output differs from %s (run with -update after intentional changes)\ngot:  %s\nwant: %s",
			path, got, want)
	}
}

// goldenRegistry builds a registry with one metric of every kind and fully
// deterministic contents (fixed clock, fixed observations).
func goldenRegistry() *Registry {
	reg := NewRegistry()
	w := reg.Scope("stream").Scope("writer")
	w.Counter("app_bytes").Add(1 << 20)
	w.Counter("wire_bytes").Add(300 << 10)
	w.Counter("app_bytes{level=1}").Add(1 << 20)
	w.FloatFunc("ratio", func() float64 { return 0.29296875 })

	tn := reg.Scope("tunnel")
	tn.Scope("conns").Gauge("active").Set(2)
	tn.Scope("dial").Counter("retries").Add(3)

	h := w.Histogram("window_rate", ExpBuckets(1e3, 2, 8))
	for _, v := range []float64{1500, 3000, 3000, 48000, 1e9} {
		h.Observe(v)
	}

	l := w.EventLog("decisions", 4)
	base := time.Date(2026, 2, 3, 4, 5, 6, 700000000, time.UTC)
	n := 0
	l.SetNow(func() time.Time {
		n++
		return base.Add(time.Duration(n) * 2 * time.Second)
	})
	l.Add("probe", "level 0 -> 1 rate 52428800 B/s prev 52428800 B/s bck[0]=0")
	l.Add("reward", "level 1 -> 1 rate 62914560 B/s prev 52428800 B/s bck[1]=1")
	l.Add("revert", "level 1 -> 0 rate 41943040 B/s prev 62914560 B/s bck[1]=0")
	return reg
}

// TestSnapshotGolden pins the exact bytes of the JSON snapshot: key order,
// float formatting, histogram layout, event rendering. Any encoding change
// must be deliberate (-update) because external scrapers parse this.
func TestSnapshotGolden(t *testing.T) {
	reg := goldenRegistry()
	goldenCompare(t, "snapshot.golden", reg.Snapshot())
}

// TestRenderTextGolden pins the human-readable summary the CLIs print.
func TestRenderTextGolden(t *testing.T) {
	reg := goldenRegistry()
	goldenCompare(t, "rendertext.golden", []byte(reg.RenderText()))
}
