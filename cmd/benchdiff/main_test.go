package main

import (
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: adaptio/internal/stream
cpu: whatever
BenchmarkAllocWriterSteady-8   	     300	      5067 ns/op	 25882.51 MB/s	       0 B/op	       0 allocs/op
BenchmarkAllocReaderSteady-8   	     300	      4012 ns/op	       0 B/op	       0 allocs/op
BenchmarkAllocWriterChurn-8    	     300	     91042 ns/op	     600 B/op	       3 allocs/op
BenchmarkNotMem-8              	     300	      1000 ns/op
PASS
ok  	adaptio/internal/stream	1.2s
BenchmarkAllocWriterChurn-8    	     300	     90000 ns/op	     550 B/op	       4 allocs/op
`

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %+v", len(got), got)
	}
	if m := got["BenchmarkAllocWriterSteady"]; m.BytesPerOp != 0 || m.AllocsPerOp != 0 {
		t.Fatalf("WriterSteady = %+v, want zero mem", m)
	}
	if m := got["BenchmarkAllocWriterSteady"]; m.MBPerS != 25882.51 || !m.hasSpeed {
		t.Fatalf("WriterSteady = %+v, want MB/s 25882.51", m)
	}
	// Repeated benchmark keeps the per-metric minimum: 550 B from the
	// second run, 3 allocs from the first.
	if m := got["BenchmarkAllocWriterChurn"]; m.BytesPerOp != 550 || m.AllocsPerOp != 3 || m.hasSpeed {
		t.Fatalf("WriterChurn = %+v, want {550 3} and no speed", m)
	}
	// A line with neither -benchmem nor MB/s columns carries nothing
	// either gate reads, so both treat the benchmark as missing.
	if m, ok := got["BenchmarkNotMem"]; ok {
		t.Fatalf("NotMem = %+v, want the ns/op-only line skipped", m)
	}
}

func TestCompareAllocModeSkipsMemlessLines(t *testing.T) {
	base := map[string]measurement{"BenchmarkA": {BytesPerOp: 100, AllocsPerOp: 1}}
	results := map[string]measurement{"BenchmarkA": {MBPerS: 50, hasSpeed: true}}
	opts := options{mode: modeAlloc, regress: 0.15, slackBytes: 512, slackAllocs: 1}
	rows, failed := compare(base, results, opts)
	if !failed || rows[0].verdict != verdictMissing {
		t.Fatalf("speed-only input must count as MISSING in alloc mode, got %+v", rows[0])
	}
}

func TestCompareThroughputMode(t *testing.T) {
	base := map[string]measurement{
		"BenchmarkTPFast": {MBPerS: 1000},
		"BenchmarkTPSlow": {MBPerS: 10},
	}
	opts := options{mode: modeThroughput, regress: 0.40}

	t.Run("within tolerance passes", func(t *testing.T) {
		results := map[string]measurement{
			"BenchmarkTPFast": {MBPerS: 601, hasSpeed: true},
			"BenchmarkTPSlow": {MBPerS: 6.01, hasSpeed: true},
		}
		if rows, failed := compare(base, results, opts); failed {
			t.Fatalf("gate failed, rows: %+v", rows)
		}
	})

	t.Run("MB/s collapse fails", func(t *testing.T) {
		results := map[string]measurement{
			"BenchmarkTPFast": {MBPerS: 400, hasSpeed: true},
			"BenchmarkTPSlow": {MBPerS: 10, hasSpeed: true},
		}
		rows, failed := compare(base, results, opts)
		if !failed || rows[0].verdict != verdictFail {
			t.Fatalf("40%% MB/s loss must fail, rows: %+v", rows)
		}
	})

	t.Run("mem-only line counts as missing", func(t *testing.T) {
		results := map[string]measurement{
			"BenchmarkTPFast": {MBPerS: 1000, hasSpeed: true},
			"BenchmarkTPSlow": {BytesPerOp: 1, AllocsPerOp: 1, hasMem: true},
		}
		if _, failed := compare(base, results, opts); !failed {
			t.Fatal("input without speed columns must count as missing")
		}
	})
}

// TestComparePerBenchmarkRegressOverride pins the baseline-entry "regress"
// field: it replaces the global tolerance for that one benchmark only.
func TestComparePerBenchmarkRegressOverride(t *testing.T) {
	base := map[string]measurement{
		"BenchmarkTight": {MBPerS: 100, Regress: 0.25},
		"BenchmarkLoose": {MBPerS: 100},
	}
	opts := options{mode: modeThroughput, regress: 0.40}

	t.Run("override tightens one row", func(t *testing.T) {
		// 70 MB/s is a 30% drop: inside the global 0.40 tolerance, outside
		// the overridden 0.25 — so only the tight row may fail.
		results := map[string]measurement{
			"BenchmarkTight": {MBPerS: 70, hasSpeed: true},
			"BenchmarkLoose": {MBPerS: 70, hasSpeed: true},
		}
		rows, failed := compare(base, results, opts)
		if !failed {
			t.Fatalf("30%% drop must fail the 0.25 override, rows: %+v", rows)
		}
		for _, r := range rows {
			switch r.name {
			case "BenchmarkTight":
				if r.verdict != verdictFail {
					t.Fatalf("tight row = %+v, want FAIL", r)
				}
			case "BenchmarkLoose":
				if r.verdict == verdictFail {
					t.Fatalf("loose row = %+v, want pass under global 0.40", r)
				}
			}
		}
	})

	t.Run("within the override passes", func(t *testing.T) {
		results := map[string]measurement{
			"BenchmarkTight": {MBPerS: 80, hasSpeed: true},
			"BenchmarkLoose": {MBPerS: 61, hasSpeed: true},
		}
		if rows, failed := compare(base, results, opts); failed {
			t.Fatalf("20%% drop is inside the 0.25 override, rows: %+v", rows)
		}
	})
}

// TestCompareThroughputReportsAllRegressions is the multi-regression
// contract: when several benchmarks regress in one run, every one of them
// must carry a FAIL verdict with a reason, and failingNames must enumerate
// them all — the gate may not surface just the first casualty.
func TestCompareThroughputReportsAllRegressions(t *testing.T) {
	base := map[string]measurement{
		"BenchmarkTPAlpha": {MBPerS: 2000},
		"BenchmarkTPBeta":  {MBPerS: 800},
		"BenchmarkTPGamma": {MBPerS: 30},
		"BenchmarkTPOK":    {MBPerS: 100},
	}
	opts := options{mode: modeThroughput, regress: 0.40}
	cases := []struct {
		name        string
		results     map[string]measurement
		wantFailing []string
		wantReasons map[string]int // FAIL rows -> number of reasons
	}{
		{
			name: "two MB/s collapses",
			results: map[string]measurement{
				"BenchmarkTPAlpha": {MBPerS: 100, hasSpeed: true},
				"BenchmarkTPBeta":  {MBPerS: 100, hasSpeed: true},
				"BenchmarkTPGamma": {MBPerS: 30, hasSpeed: true},
				"BenchmarkTPOK":    {MBPerS: 100, hasSpeed: true},
			},
			wantFailing: []string{"BenchmarkTPAlpha", "BenchmarkTPBeta"},
			wantReasons: map[string]int{"BenchmarkTPAlpha": 1, "BenchmarkTPBeta": 1},
		},
		{
			name: "every family regresses at once",
			results: map[string]measurement{
				"BenchmarkTPAlpha": {MBPerS: 100, hasSpeed: true},
				"BenchmarkTPBeta":  {MBPerS: 1, hasSpeed: true},
				"BenchmarkTPGamma": {MBPerS: 3, hasSpeed: true},
				"BenchmarkTPOK":    {MBPerS: 100, hasSpeed: true},
			},
			wantFailing: []string{"BenchmarkTPAlpha", "BenchmarkTPBeta", "BenchmarkTPGamma"},
			wantReasons: map[string]int{"BenchmarkTPAlpha": 1, "BenchmarkTPBeta": 1, "BenchmarkTPGamma": 1},
		},
		{
			name: "missing benchmark joins the enumeration",
			results: map[string]measurement{
				"BenchmarkTPAlpha": {MBPerS: 2000, hasSpeed: true},
				"BenchmarkTPBeta":  {MBPerS: 100, hasSpeed: true},
				"BenchmarkTPOK":    {MBPerS: 100, hasSpeed: true},
			},
			wantFailing: []string{"BenchmarkTPBeta", "BenchmarkTPGamma"},
			wantReasons: map[string]int{"BenchmarkTPBeta": 1},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rows, failed := compare(base, c.results, opts)
			if !failed {
				t.Fatal("gate must fail")
			}
			got := failingNames(rows)
			if len(got) != len(c.wantFailing) {
				t.Fatalf("failingNames = %v, want %v", got, c.wantFailing)
			}
			for i, name := range c.wantFailing {
				if got[i] != name {
					t.Fatalf("failingNames = %v, want %v", got, c.wantFailing)
				}
			}
			for _, r := range rows {
				want, isFail := c.wantReasons[r.name]
				if isFail {
					if r.verdict != verdictFail || len(r.reasons) != want {
						t.Errorf("%s: verdict %q with %d reason(s) %v, want FAIL with %d",
							r.name, r.verdict, len(r.reasons), r.reasons, want)
					}
				} else if r.verdict == verdictFail {
					t.Errorf("%s unexpectedly FAILed: %v", r.name, r.reasons)
				}
			}
		})
	}
}

func TestExceeds(t *testing.T) {
	cases := []struct {
		got, base int64
		regress   float64
		slack     int64
		want      bool
	}{
		{got: 0, base: 0, regress: 0.15, slack: 512, want: false},
		{got: 512, base: 0, regress: 0.15, slack: 512, want: false}, // slack floor
		{got: 513, base: 0, regress: 0.15, slack: 512, want: true},
		{got: 115, base: 100, regress: 0.15, slack: 0, want: false}, // exactly +15%
		{got: 116, base: 100, regress: 0.15, slack: 0, want: true},
		{got: 1_150_000, base: 1_000_000, regress: 0.15, slack: 512, want: false},
		{got: 1_160_000, base: 1_000_000, regress: 0.15, slack: 512, want: true},
		{got: 1, base: 0, regress: 0.15, slack: 1, want: false}, // allocs slack
		{got: 2, base: 0, regress: 0.15, slack: 1, want: true},
	}
	for _, c := range cases {
		if got := exceeds(c.got, c.base, c.regress, c.slack); got != c.want {
			t.Errorf("exceeds(%d, %d, %v, %d) = %v, want %v", c.got, c.base, c.regress, c.slack, got, c.want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := map[string]measurement{
		"BenchmarkA": {BytesPerOp: 1000, AllocsPerOp: 10},
		"BenchmarkB": {BytesPerOp: 0, AllocsPerOp: 0},
		"BenchmarkC": {BytesPerOp: 500, AllocsPerOp: 5},
	}
	opts := options{regress: 0.15, slackBytes: 512, slackAllocs: 1}

	t.Run("all within tolerance", func(t *testing.T) {
		results := map[string]measurement{
			"BenchmarkA": {BytesPerOp: 1100, AllocsPerOp: 11},
			"BenchmarkB": {BytesPerOp: 100, AllocsPerOp: 1},
			"BenchmarkC": {BytesPerOp: 400, AllocsPerOp: 4},
		}
		rows, failed := compare(base, results, opts)
		if failed {
			t.Fatalf("gate failed, rows: %+v", rows)
		}
		if len(rows) != 3 {
			t.Fatalf("got %d rows, want 3", len(rows))
		}
	})

	t.Run("bytes regression fails", func(t *testing.T) {
		results := map[string]measurement{
			"BenchmarkA": {BytesPerOp: 5000, AllocsPerOp: 10},
			"BenchmarkB": {},
			"BenchmarkC": {BytesPerOp: 500, AllocsPerOp: 5},
		}
		rows, failed := compare(base, results, opts)
		if !failed {
			t.Fatal("5x B/op growth must fail the gate")
		}
		if rows[0].verdict != verdictFail {
			t.Fatalf("BenchmarkA verdict = %q, want FAIL", rows[0].verdict)
		}
	})

	t.Run("allocs regression fails", func(t *testing.T) {
		results := map[string]measurement{
			"BenchmarkA": {BytesPerOp: 1000, AllocsPerOp: 20},
			"BenchmarkB": {},
			"BenchmarkC": {BytesPerOp: 500, AllocsPerOp: 5},
		}
		if _, failed := compare(base, results, opts); !failed {
			t.Fatal("2x allocs/op growth must fail the gate")
		}
	})

	t.Run("missing benchmark fails unless allowed", func(t *testing.T) {
		results := map[string]measurement{
			"BenchmarkA": {BytesPerOp: 1000, AllocsPerOp: 10},
			"BenchmarkC": {BytesPerOp: 500, AllocsPerOp: 5},
		}
		if _, failed := compare(base, results, opts); !failed {
			t.Fatal("missing baseline benchmark must fail")
		}
		lax := opts
		lax.allowMissing = true
		rows, failed := compare(base, results, lax)
		if failed {
			t.Fatal("missing benchmark must pass with -allow-missing")
		}
		for _, r := range rows {
			if r.name == "BenchmarkB" && r.verdict != verdictMissing {
				t.Fatalf("BenchmarkB verdict = %q, want MISSING", r.verdict)
			}
		}
	})

	t.Run("new benchmark is informational", func(t *testing.T) {
		results := map[string]measurement{
			"BenchmarkA": {BytesPerOp: 1000, AllocsPerOp: 10},
			"BenchmarkB": {},
			"BenchmarkC": {BytesPerOp: 500, AllocsPerOp: 5},
			"BenchmarkD": {BytesPerOp: 1 << 20, AllocsPerOp: 999},
		}
		rows, failed := compare(base, results, opts)
		if failed {
			t.Fatal("unbaselined benchmark must not fail the gate")
		}
		last := rows[len(rows)-1]
		if last.name != "BenchmarkD" || last.verdict != verdictNew {
			t.Fatalf("last row = %+v, want BenchmarkD/new", last)
		}
	})
}

func TestRenderRowsMentionsEverything(t *testing.T) {
	rows := []row{
		{name: "BenchmarkA", base: measurement{BytesPerOp: 1000, AllocsPerOp: 10}, got: measurement{BytesPerOp: 900, AllocsPerOp: 9}, verdict: verdictOK},
		{name: "BenchmarkB", base: measurement{BytesPerOp: 10, AllocsPerOp: 1}, got: measurement{BytesPerOp: 9000, AllocsPerOp: 1}, verdict: verdictFail, reasons: []string{"B/op 9000 > 10+15%+512"}},
	}
	out := renderRows(rows, "post_arena", options{regress: 0.15})
	for _, want := range []string{"BenchmarkA", "BenchmarkB", "FAIL", "9000"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render output missing %q:\n%s", want, out)
		}
	}
	tp := []row{
		{name: "BenchmarkTP", base: measurement{MBPerS: 1000}, got: measurement{MBPerS: 450.5}, verdict: verdictFail, reasons: []string{"MB/s 450.5 < 1000.0-40%"}},
	}
	out = renderRows(tp, "current", options{mode: modeThroughput, regress: 0.40})
	for _, want := range []string{"BenchmarkTP", "450.50", "1000.00", "FAIL"} {
		if !strings.Contains(out, want) {
			t.Fatalf("throughput render output missing %q:\n%s", want, out)
		}
	}
}
