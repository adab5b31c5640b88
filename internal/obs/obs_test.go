package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatalf("zero counter = %d", c.Value())
	}
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
	for _, tc := range []struct {
		set  int64
		want int64
	}{
		{10, 10}, // raises
		{5, 10},  // lower value is a no-op
		{10, 10}, // equal value is a no-op
		{11, 11}, // raises again
	} {
		g.SetMax(tc.set)
		if got := g.Value(); got != tc.want {
			t.Fatalf("after SetMax(%d): gauge = %d, want %d", tc.set, got, tc.want)
		}
	}
}

func TestScopeNaming(t *testing.T) {
	reg := NewRegistry()
	c := reg.Scope("stream").Scope("writer").Counter("level_switches")
	c.Inc()
	if got := reg.Get("stream.writer.level_switches"); got != Metric(c) {
		t.Fatalf("registry lookup returned %v, want the registered counter", got)
	}
	names := reg.Names()
	if len(names) != 1 || names[0] != "stream.writer.level_switches" {
		t.Fatalf("names = %v", names)
	}
}

func TestNilScopeIsFunctional(t *testing.T) {
	var s *Scope
	// Every constructor on a nil scope must return a usable metric.
	s.Counter("c").Inc()
	s.Gauge("g").Set(1)
	s.Histogram("h", nil).Observe(1)
	s.EventLog("e", 0).Add("k", "d")
	s.IntFunc("i", func() int64 { return 1 })
	s.FloatFunc("f", func() float64 { return 1 })
	if s.Scope("child") != nil {
		t.Fatal("child of nil scope should be nil")
	}
	if s.Name() != "" || s.Registry() != nil {
		t.Fatal("nil scope identity accessors should be zero")
	}
}

func TestAttachSharesSameKind(t *testing.T) {
	reg := NewRegistry()
	s := reg.Scope("tunnel")
	a := s.Counter("conns")
	b := s.Counter("conns")
	if a != b {
		t.Fatal("same name + same kind must return the existing counter")
	}
	a.Add(2)
	if b.Value() != 2 {
		t.Fatal("shared counter does not share state")
	}
}

func TestAttachPanicsOnKindMismatch(t *testing.T) {
	reg := NewRegistry()
	s := reg.Scope("x")
	s.Counter("m")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge should panic")
		}
	}()
	s.Gauge("m")
}

// TestCounterFamilyLabels: a labelled counter is a counter whose name
// carries the label; resolving the name again returns the same counter.
func TestCounterFamilyLabels(t *testing.T) {
	reg := NewRegistry()
	s := reg.Scope("stream")
	s.Counter("wire_bytes{level=0}").Add(10)
	s.Counter("wire_bytes{level=1}").Add(20)
	if got := s.Counter("wire_bytes{level=0}"); got.Value() != 10 {
		t.Fatalf("labelled counter level=0 = %d, want 10", got.Value())
	}
	want := []string{"stream.wire_bytes{level=0}", "stream.wire_bytes{level=1}"}
	names := reg.Names()
	if len(names) != len(want) || names[0] != want[0] || names[1] != want[1] {
		t.Fatalf("names = %v, want %v", names, want)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram([]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	for v := 1; v <= 100; v++ {
		h.Observe(float64(v))
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Sum(); got != 5050 {
		t.Fatalf("sum = %v", got)
	}
	if got := h.Mean(); got != 50.5 {
		t.Fatalf("mean = %v", got)
	}
	// 10 observations per bucket: the q-quantile should land within one
	// bucket width of the exact order statistic.
	for _, tc := range []struct{ q, want float64 }{
		{0.50, 50}, {0.95, 95}, {0.99, 99},
	} {
		got := h.Quantile(tc.q)
		if got < tc.want-10 || got > tc.want+10 {
			t.Errorf("q%.0f = %v, want within one bucket of %v", tc.q*100, got, tc.want)
		}
	}
}

func TestHistogramOverflowSaturates(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	h.Observe(100)
	h.Observe(200)
	if got := h.Quantile(0.99); got != 2 {
		t.Fatalf("overflow quantile = %v, want saturation at last bound 2", got)
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	h := newHistogram(nil)
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v", got)
	}
	if got := h.Mean(); got != 0 {
		t.Fatalf("empty mean = %v", got)
	}
}

func TestBucketSpecValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"exp n<1":       func() { ExpBuckets(1, 2, 0) },
		"exp start<=0":  func() { ExpBuckets(0, 2, 4) },
		"exp factor<=1": func() { ExpBuckets(1, 1, 4) },
		"not ascending": func() { newHistogram([]float64{1, 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestEventLogRing(t *testing.T) {
	l := NewEventLog(3)
	base := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	i := 0
	l.SetNow(func() time.Time {
		i++
		return base.Add(time.Duration(i) * time.Second)
	})
	for _, k := range []string{"a", "b", "c", "d", "e"} {
		l.Add(k, "detail "+k)
	}
	if l.Len() != 3 {
		t.Fatalf("len = %d, want capacity 3", l.Len())
	}
	if l.Total() != 5 {
		t.Fatalf("total = %d, want 5", l.Total())
	}
	events := l.Events()
	wantKinds := []string{"c", "d", "e"}
	for i, e := range events {
		if e.Kind != wantKinds[i] {
			t.Fatalf("event %d kind = %q, want %q (oldest first, ring evicted)", i, e.Kind, wantKinds[i])
		}
		if e.Seq != uint64(i+3) {
			t.Fatalf("event %d seq = %d, want %d (seq survives eviction)", i, e.Seq, i+3)
		}
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	reg := NewRegistry()
	s := reg.Scope("app")
	s.Counter("b").Add(2)
	s.Counter("a").Add(1)
	s.Gauge("g").Set(-7)
	one := string(reg.Snapshot())
	two := string(reg.Snapshot())
	if one != two {
		t.Fatalf("snapshots of identical state differ:\n%s\n%s", one, two)
	}
	// Keys sorted lexicographically regardless of registration order.
	if !strings.Contains(one, `"app.a":1,"app.b":2`) {
		t.Fatalf("snapshot keys not sorted: %s", one)
	}
}

func TestNilRegistrySafety(t *testing.T) {
	var r *Registry
	if r.Scope("x") != nil {
		t.Fatal("nil registry scope should be nil")
	}
	if got := string(r.Snapshot()); got != "{}" {
		t.Fatalf("nil registry snapshot = %q", got)
	}
	if r.Names() != nil || r.Get("x") != nil {
		t.Fatal("nil registry lookups should be zero")
	}
	if r.RenderText() != "" {
		t.Fatal("nil registry RenderText should be empty")
	}
}

func TestRenderText(t *testing.T) {
	reg := NewRegistry()
	reg.Scope("a").Counter("c").Add(3)
	reg.Scope("a").Gauge("g").Set(4)
	got := reg.RenderText()
	want := "a.c 3\na.g 4\n"
	if got != want {
		t.Fatalf("RenderText = %q, want %q", got, want)
	}
}

func TestFuncMetrics(t *testing.T) {
	reg := NewRegistry()
	s := reg.Scope("derived")
	n := int64(0)
	im := s.IntFunc("i", func() int64 { return n })
	fm := s.FloatFunc("f", func() float64 { return float64(n) / 2 })
	n = 8
	if im.Value() != 8 || fm.Value() != 4 {
		t.Fatalf("func metrics = %d, %v", im.Value(), fm.Value())
	}
	snap := string(reg.Snapshot())
	if !strings.Contains(snap, `"derived.i":8`) || !strings.Contains(snap, `"derived.f":4`) {
		t.Fatalf("snapshot missing derived values: %s", snap)
	}
}

// TestServeMuxPaths: the one metrics endpoint serves the snapshot, the
// expvar page with the registry on it, and the pprof index.
func TestServeMuxPaths(t *testing.T) {
	reg := NewRegistry()
	reg.Scope("mux").Counter("hits").Add(7)
	srv := httptest.NewServer(NewServeMux(reg))
	defer srv.Close()
	for path, want := range map[string]string{
		"/metrics":      `"mux.hits":7`,
		"/":             `"mux.hits":7`,
		"/debug/vars":   `"adaptio": {"mux.hits":7`,
		"/debug/pprof/": "goroutine",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), want) {
			t.Errorf("GET %s = %d, body lacks %q:\n%.300s", path, resp.StatusCode, want, body)
		}
	}
}
