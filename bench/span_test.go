package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestSelfTime: a span's self time is its duration minus the union of its
// children's intervals, clipped to the span; grandchildren count against
// their own parent only.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "write", Start: 0, End: 100, Parent: -1},
		{ID: 1, Name: "wire", Start: 10, End: 30, Parent: 0},
		{ID: 2, Name: "wire", Start: 20, End: 50, Parent: 0},  // overlaps span 1: union [10,50)
		{ID: 3, Name: "wire", Start: 90, End: 120, Parent: 0}, // runs past the parent: clipped to [90,100)
		{ID: 4, Name: "syscall", Start: 22, End: 28, Parent: 2},
		{ID: 5, Name: "write", Start: 200, End: 260, Parent: -1}, // childless
		{ID: 6, Name: "write", Start: 300, End: 310, Parent: -1}, // starts outside the window
	}
	got := selfTimes(spans, 0, 300)
	want := map[string]layerTime{
		"write":   {count: 2, total: 160, self: 110},
		"wire":    {count: 3, total: 80, self: 74},
		"syscall": {count: 1, total: 6, self: 6},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got layers %v, want %d of them", got, len(want))
	}
}

// TestRecorderLinksParents: spans begun while another is open on the same
// track name it as parent; tracks do not see each other; IDs survive the
// merge and the file.
func TestRecorderLinksParents(t *testing.T) {
	rec := newRecorder()
	a, b := rec.track(1), rec.track(2)
	outer := a.begin("stream.writer.write")
	other := b.begin("stream.reader.read")
	inner := a.begin("wire.write")
	a.end(inner)
	a.end(outer)
	b.end(other)

	spans := rec.merged()
	if len(spans) != 3 {
		t.Fatalf("merged %d spans, want 3", len(spans))
	}
	byName := make(map[string]span)
	for _, s := range spans {
		byName[s.Name] = s
		if s.End < s.Start {
			t.Errorf("%s ends before it starts", s.Name)
		}
	}
	if w := byName["wire.write"]; w.Parent != byName["stream.writer.write"].ID || w.Stream != 1 {
		t.Errorf("wire.write = %+v, want parent %d on stream 1", w, byName["stream.writer.write"].ID)
	}
	if r := byName["stream.reader.read"]; r.Parent != -1 || r.Stream != 2 {
		t.Errorf("stream.reader.read = %+v, want no parent on stream 2", r)
	}

	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := writeSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := 0
	for sc := bufio.NewScanner(f); sc.Scan(); n++ {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		if s != byName[s.Name] {
			t.Errorf("line %d: read back %+v, wrote %+v", n, s, byName[s.Name])
		}
	}
	if n != 3 {
		t.Errorf("trace file has %d lines, want 3", n)
	}

	// With tracing off there is no recorder, and every call is a no-op.
	var off *recorder
	tr := off.track(0)
	tr.end(tr.begin("x"))
}
