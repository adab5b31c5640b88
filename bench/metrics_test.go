package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestSummarize: the median, and the highest percentile with at least
// tailBeyond samples beyond it.
func TestSummarize(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // 1..n, unsorted
		}
		return xs
	}
	for _, c := range []struct {
		n      int
		tailQ  float64
		beyond int
		median float64
		tail   float64
	}{
		{n: 5, tailQ: 0.50, beyond: 2, median: 3, tail: 3},
		{n: 101, tailQ: 0.90, beyond: 10, median: 51, tail: 91},
		{n: 999, tailQ: 0.95, beyond: 49, median: 500, tail: 949.1},
		{n: 1000, tailQ: 0.99, beyond: 10, median: 500.5, tail: 990.01},
		{n: 10001, tailQ: 0.999, beyond: 10, median: 5001, tail: 9991},
	} {
		s := summarize(ramp(c.n))
		if s.N != c.n || s.TailQ != c.tailQ || s.Beyond != c.beyond {
			t.Errorf("n=%d: got p%g with %d beyond, want p%g with %d", c.n, s.TailQ*100, s.Beyond, c.tailQ*100, c.beyond)
		}
		if diff := s.Median - c.median; diff < -1e-9 || diff > 1e-9 {
			t.Errorf("n=%d: median %v, want %v", c.n, s.Median, c.median)
		}
		if diff := s.Tail - c.tail; diff < -1e-6 || diff > 1e-6 {
			t.Errorf("n=%d: tail %v, want %v", c.n, s.Tail, c.tail)
		}
	}
}

func TestWorsening(t *testing.T) {
	higher, lower := metricDef{Better: "higher"}, metricDef{Better: "lower"}
	for _, c := range []struct {
		d        metricDef
		ref, cur float64
		want     float64
	}{
		{higher, 100, 90, 0.10},
		{higher, 100, 110, -0.10},
		{lower, 10, 12, 0.20},
		{lower, 10, 9, -0.10},
	} {
		got, err := worsening(c.d, c.ref, c.cur)
		if err != nil || got < c.want-1e-12 || got > c.want+1e-12 {
			t.Errorf("worsening(%s, %v -> %v) = %v, %v, want %v", c.d.Better, c.ref, c.cur, got, err, c.want)
		}
	}
	for _, c := range [][2]float64{{0, 5}, {5, 0}} {
		if _, err := worsening(lower, c[0], c[1]); err == nil {
			t.Errorf("worsening(%v -> %v): a reading of 0 passed as measured", c[0], c[1])
		}
	}
}

// TestCompare: -check passes a run set against itself, and fails one that
// worsened beyond a bound, lacks a workload, lacks a metric, or read 0.
func TestCompare(t *testing.T) {
	set := func(edit func(*resultFile)) *resultFile {
		f := &resultFile{Seed: 1, Seconds: runSeconds, Runs: 1, Workloads: make(map[string]*workloadResult)}
		for _, w := range workloads {
			wr := &workloadResult{Metrics: make(map[string]*aggregate)}
			addAll(wr.Metrics, endToEnd, map[string]float64{
				"goodput_mb_s": 100, "wire_ratio": 0.5, "cpu_s_per_gb": 5, "rtt_p50_ms": 10,
				"rtt_p99_ms": 12, "peak_rss_mb": 80, "setup_s": 0.2,
			})
			f.Workloads[w.name] = wr
		}
		edit(f)
		return f
	}
	ref := set(func(*resultFile) {})
	scale := func(workload, metric string, by float64) func(*resultFile) {
		return func(f *resultFile) {
			wr := f.Workloads[workload]
			wr.Metrics[metric] = &aggregate{}
			wr.Metrics[metric].add("", by*ref.Workloads[workload].Metrics[metric].Median)
		}
	}
	for _, c := range []struct {
		name string
		edit func(*resultFile)
		want int
	}{
		{"the same run set", func(*resultFile) {}, 0},
		{"static wire_ratio 4 % worse", scale("fast-relay", "wire_ratio", 1.04), 1},
		{"static goodput 20 % worse", scale("fast-relay", "goodput_mb_s", 0.80), 0},
		{"scarce goodput 20 % worse", scale("scarce-text", "goodput_mb_s", 0.80), 1},
		{"echo goodput halved: printed, not bounded", scale("interactive-echo", "goodput_mb_s", 0.5), 0},
		{"a workload missing", func(f *resultFile) { delete(f.Workloads, "scarce-jpeg") }, 1},
		{"a metric missing", func(f *resultFile) { delete(f.Workloads["fast-relay"].Metrics, "cpu_s_per_gb") }, 1},
		{"a metric reading 0", scale("interactive-echo", "rtt_p99_ms", 0), 1},
		{"another seed", func(f *resultFile) { f.Seed = 2 }, 2},
	} {
		if got := compare(ref, set(c.edit)); got != c.want {
			t.Errorf("%s: compare returned %d, want %d", c.name, got, c.want)
		}
	}
}

// TestDriverArgs: the driver's `--trace 0|1` becomes a boolean flag's value;
// a bare -trace stays bare.
func TestDriverArgs(t *testing.T) {
	for in, want := range map[string]string{
		"--workload hit --seed 3 --seconds 16 --trace 0": "--workload hit --seed 3 --seconds 16 --trace=0",
		"-trace 1 -runs 2":     "-trace=1 -runs 2",
		"-trace -runs 1":       "-trace -runs 1",
		"-trace":               "-trace",
		"-check a.json b.json": "-check a.json b.json",
	} {
		if got := strings.Join(driverArgs(strings.Fields(in)), " "); got != want {
			t.Errorf("driverArgs(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestBenchmarkJSONMatches: BENCHMARK.json at the repository root declares
// the workloads and metrics this package implements, name for name.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var decl struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(decl.Command, " "), "go run -C bench adaptio/bench"; got != want {
		t.Errorf("command = %q, want %q", got, want)
	}
	if len(decl.Paths) != 1 || decl.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", decl.Paths)
	}
	if decl.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, want %d", decl.RunSeconds, runSeconds)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d := decl.Workloads[i]; d.Name != w.name || d.Why != w.why {
			t.Errorf("workload %d: declared %q (%q), implemented %q (%q)", i, d.Name, d.Why, w.name, w.why)
		}
	}
	same := func(kind string, declared []metric, defs []metricDef, bounded bool) {
		if len(declared) != len(defs) {
			t.Fatalf("%s: %d metrics declared, %d implemented", kind, len(declared), len(defs))
		}
		for i, d := range defs {
			m := declared[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s %d: declared %+v, implemented %+v", kind, i, m, d)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound != d.Driver):
				t.Errorf("%s: declared bound %v, implemented %v", d.Name, m.Bound, d.Driver)
			case !bounded && m.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", d.Name)
			}
		}
	}
	same("end_to_end", decl.EndToEnd, driverEndToEnd(), true)
	same("per_layer", decl.PerLayer, perLayer, false)
}
