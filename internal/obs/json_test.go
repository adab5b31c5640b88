package obs

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// TestSnapshotNonFiniteIsNull: a NaN or infinite float renders as null, so
// one bad derived metric or observation cannot make the whole scrape
// invalid JSON.
func TestSnapshotNonFiniteIsNull(t *testing.T) {
	reg := NewRegistry()
	s := reg.Scope("bad")
	s.FloatFunc("nan", func() float64 { return math.NaN() })
	s.FloatFunc("inf", func() float64 { return math.Inf(-1) })
	h := s.Histogram("hist", []float64{1, 2})
	h.Observe(math.NaN())
	h.Observe(math.Inf(1))

	snap := reg.Snapshot()
	if !json.Valid(snap) {
		t.Fatalf("snapshot is not valid JSON: %s", snap)
	}
	for _, want := range []string{`"bad.nan":null`, `"bad.inf":null`, `"sum":null`, `"mean":null`} {
		if !strings.Contains(string(snap), want) {
			t.Errorf("snapshot lacks %s: %s", want, snap)
		}
	}
	checkRenderText(t, reg)
}

// checkRenderText asserts that every value of reg's text report is valid
// JSON. Names may hold spaces or newlines, so the report is walked name by
// name rather than split; an encoded value never holds a raw newline.
func checkRenderText(t *testing.T, reg *Registry) {
	t.Helper()
	rest := reg.RenderText()
	for _, name := range reg.Names() {
		var ok bool
		if rest, ok = strings.CutPrefix(rest, name+" "); !ok {
			t.Fatalf("RenderText: no line for %q at %q", name, rest)
		}
		var value string
		value, rest, _ = strings.Cut(rest, "\n")
		if !json.Valid([]byte(value)) {
			t.Fatalf("RenderText value of %q is not valid JSON: %s", name, value)
		}
	}
	if rest != "" {
		t.Fatalf("RenderText has trailing text %q", rest)
	}
}

// FuzzSnapshotIsJSON: whatever the metric names, event payloads (invalid
// UTF-8, control bytes, quotes) and float values (any bit pattern, NaN and
// Inf included), the snapshot and every text-report value are valid JSON.
func FuzzSnapshotIsJSON(f *testing.F) {
	f.Add("app_bytes{level=1}", "probe", "level 0 -> 1 <b>&amp;", math.Float64bits(0.5))
	f.Add("\x00\"\\\n", "\xff\xfe", "\u2028\t\r\x1f", math.Float64bits(math.NaN()))
	f.Add("a b", "", "\xc3", math.Float64bits(math.Inf(-1)))
	f.Add("", "kind", "detail", uint64(0x7ff0000000000001)) // a signalling NaN
	f.Fuzz(func(t *testing.T, name, kind, detail string, bits uint64) {
		v := math.Float64frombits(bits)
		reg := NewRegistry()
		s := reg.Scope(name)
		s.Counter(name).Add(int64(bits))
		s.Gauge(name + ".g").Set(-int64(bits))
		s.FloatFunc(name+".f", func() float64 { return v })
		h := s.Histogram(name+".h", nil)
		h.Observe(v)
		h.Observe(-v)
		s.EventLog(name+".e", 2).Add(kind, detail)
		if snap := reg.Snapshot(); !json.Valid(snap) {
			t.Fatalf("snapshot is not valid JSON: %q", snap)
		}
		checkRenderText(t, reg)
	})
}
