// Command benchdiff is the perf-regression gate: it parses `go test -bench`
// output and compares every benchmark against a committed baseline, failing
// (exit 1) on regressions beyond a tolerance. It has two modes:
//
//   - `-mode alloc` (default) gates B/op and allocs/op against
//     BENCH_alloc.json, as produced by `make bench-alloc`;
//   - `-mode throughput` gates MB/s against BENCH_throughput.json, as
//     produced by `make bench-throughput`.
//
// (BENCH_decider.json is deterministic in its seed, so its gate is a byte
// comparison: `make bench-decider-gate` regenerates it and runs `cmp`.)
//
// It exists because CI must not depend on tools outside the repository:
// benchstat needs an install step, benchdiff is `go run ./cmd/benchdiff`.
//
//	make bench-alloc | tee bench.txt
//	go run ./cmd/benchdiff -baseline BENCH_alloc.json bench.txt
//
// or, as one target: `make bench-compare` / `make bench-throughput-compare`.
// Reading from stdin works too.
//
// The alloc pass rule, per metric (bytes and allocs independently):
//
//	new <= base*(1+regress) + slack
//
// The multiplicative term is the headline tolerance (default 15%, per
// docs/performance.md). The additive slack exists for near-zero baselines:
// a 0 B/op baseline would otherwise fail on any nonzero reading, and
// sync.Pool warm-up noise under -benchtime=300x is worth a few hundred
// bytes. Defaults: 512 B and 1 alloc. Baselines large enough to matter
// are unaffected by the slack.
//
// The throughput pass rule:
//
//	new MB/s >= base MB/s * (1-regress)
//
// with a deliberately wider default tolerance (40%): wall-clock throughput
// varies with the host CPU in a way allocation counts do not, so this gate
// catches step-function regressions (a lost fast path, an accidental copy),
// not single-digit drift — docs/performance.md discusses the calibration.
//
// A baseline entry may carry a "regress" field overriding the global
// tolerance for that one benchmark (tighter for stable workloads, looser
// for known-noisy ones); see docs/performance.md for the calibrated rows.
//
// When the same benchmark appears several times (multiple -count runs), the
// best reading is kept — minimum for B/op and allocs/op, maximum for
// MB/s: the gate measures the floor the code can reach, not scheduler
// noise. Baseline benchmarks missing from the input fail the gate (a
// silently skipped benchmark is a rotten gate) unless -allow-missing is
// set; new benchmarks absent from the baseline are reported but never fail.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// measurement is one benchmark's metrics. The json tags are shared with
// internal/benchfmt, which is the schema of the committed baselines and of
// the -json-out artifact of cmd/acprobe.
type measurement struct {
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	MBPerS      float64 `json:"mb_per_s,omitempty"`

	// Regress, when set on a baseline entry (> 0), overrides the global
	// -regress tolerance for that one benchmark — the seam for pinning a
	// benchmark tighter than the mode default (e.g. a throughput row whose
	// workload is stable enough for a 25% bound under the 40% default),
	// or looser for a known-noisy one. Parsed inputs never carry it.
	Regress float64 `json:"regress,omitempty"`

	// which column families the parsed input line actually carried
	// (baseline entries don't need these: absent fields decode to zero).
	hasMem   bool
	hasSpeed bool
}

// baselineFile mirrors BENCH_alloc.json / BENCH_throughput.json. Each
// benchmark's entry maps set names to measurements but may also carry
// string fields ("note"), so the sets stay raw until the requested one is
// picked out.
type baselineFile struct {
	Description string                                `json:"description"`
	Benchmarks  map[string]map[string]json.RawMessage `json:"benchmarks"`
}

// gate modes.
const (
	modeAlloc      = "alloc"
	modeThroughput = "throughput"
)

// options holds the gate mode and tolerances.
type options struct {
	mode         string
	regress      float64 // multiplicative tolerance, e.g. 0.15
	slackBytes   int64   // additive slack for B/op
	slackAllocs  int64   // additive slack for allocs/op
	allowMissing bool
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchdiff: ")
	var (
		mode         = flag.String("mode", modeAlloc, "gate mode: alloc (B/op, allocs/op) or throughput (MB/s)")
		baselinePath = flag.String("baseline", "BENCH_alloc.json", "committed baseline file")
		set          = flag.String("set", "current", "which baseline set to compare against")
		regress      = flag.Float64("regress", -1, "tolerated regression fraction (default: 0.40 for throughput, 0.15 otherwise)")
		slackBytes   = flag.Int64("slack-bytes", 512, "additive B/op slack (protects near-zero baselines from noise)")
		slackAllocs  = flag.Int64("slack-allocs", 1, "additive allocs/op slack")
		allowMissing = flag.Bool("allow-missing", false, "do not fail when a baseline benchmark is absent from the input")
	)
	flag.Parse()
	if *mode != modeAlloc && *mode != modeThroughput {
		log.Fatalf("unknown -mode %q (want %q or %q)", *mode, modeAlloc, modeThroughput)
	}
	if *regress < 0 {
		if *mode == modeThroughput {
			*regress = 0.40
		} else {
			*regress = 0.15
		}
	}

	var in io.Reader = os.Stdin
	src := "stdin"
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		in = f
		src = flag.Arg(0)
	}

	base, err := loadBaseline(*baselinePath, *set)
	if err != nil {
		log.Fatal(err)
	}
	results, err := parseBench(in)
	if err != nil {
		log.Fatal(err)
	}
	if len(results) == 0 {
		log.Fatalf("no benchmark result lines found in %s", src)
	}

	opts := options{mode: *mode, regress: *regress, slackBytes: *slackBytes, slackAllocs: *slackAllocs, allowMissing: *allowMissing}
	rows, failed := compare(base, results, opts)
	fmt.Print(renderRows(rows, *set, opts))
	if failed {
		bad := failingNames(rows)
		log.Fatalf("FAIL: %d benchmark(s) beyond %.0f%% against %s %q: %s",
			len(bad), *regress*100, *baselinePath, *set, strings.Join(bad, ", "))
	}
	fmt.Printf("benchdiff: PASS (%d benchmarks within %.0f%% of %q)\n", len(rows), *regress*100, *set)
}

// loadBaseline reads the named measurement set out of the baseline file.
func loadBaseline(path, set string) (map[string]measurement, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf baselineFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]measurement, len(bf.Benchmarks))
	for name, sets := range bf.Benchmarks {
		raw, ok := sets[set]
		if !ok {
			return nil, fmt.Errorf("%s: benchmark %q has no set %q", path, name, set)
		}
		var m measurement
		if err := json.Unmarshal(raw, &m); err != nil {
			return nil, fmt.Errorf("%s: benchmark %q set %q: %w", path, name, set, err)
		}
		out[name] = m
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks in baseline", path)
	}
	return out, nil
}

// benchLine matches `go test -bench` result lines, e.g.
//
//	BenchmarkAllocWriterSteady-8   300   5067 ns/op   25882.51 MB/s   0 B/op   0 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.+)$`)

// parseBench extracts {name -> measurement} from benchmark output. When a
// benchmark repeats, the best reading of each metric is kept: min for
// B/op and allocs/op; max for MB/s.
func parseBench(r io.Reader) (map[string]measurement, error) {
	out := map[string]measurement{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		name, rest := m[1], strings.Fields(m[2])
		var cur measurement
		memCols := 0
		for i := 1; i < len(rest); i++ {
			v, err := strconv.ParseFloat(rest[i-1], 64)
			if err != nil {
				continue
			}
			switch rest[i] {
			case "B/op":
				cur.BytesPerOp = int64(v)
				memCols++
			case "allocs/op":
				cur.AllocsPerOp = int64(v)
				memCols++
			case "MB/s":
				cur.MBPerS = v
				cur.hasSpeed = true
			}
		}
		cur.hasMem = memCols == 2
		if !cur.hasMem && !cur.hasSpeed {
			continue // no recognized metric columns on this line
		}
		if prev, ok := out[name]; ok {
			cur.BytesPerOp = min(cur.BytesPerOp, prev.BytesPerOp)
			cur.AllocsPerOp = min(cur.AllocsPerOp, prev.AllocsPerOp)
			cur.MBPerS = max(cur.MBPerS, prev.MBPerS)
			cur.hasMem = cur.hasMem || prev.hasMem
			cur.hasSpeed = cur.hasSpeed || prev.hasSpeed
		}
		out[name] = cur
	}
	return out, sc.Err()
}

// verdicts a row can carry.
const (
	verdictOK      = "ok"
	verdictFail    = "FAIL"
	verdictMissing = "MISSING"
	verdictNew     = "new"
)

// row is one benchmark's comparison outcome.
type row struct {
	name    string
	base    measurement
	got     measurement
	verdict string
	reasons []string
}

// exceeds reports whether got regresses past base under the gate rule
// `got <= base*(1+regress) + slack`.
func exceeds(got, base int64, regress float64, slack int64) bool {
	limit := int64(float64(base)*(1+regress)+0.5) + slack
	return got > limit
}

// belowFloor reports whether got falls below the throughput gate floor
// `base*(1-regress)`.
func belowFloor(got, base, regress float64) bool {
	return got < base*(1-regress)
}

// compare evaluates every baseline benchmark against the parsed results
// and reports whether the gate failed.
func compare(base, results map[string]measurement, opts options) ([]row, bool) {
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)

	failed := false
	rows := make([]row, 0, len(names))
	for _, name := range names {
		b := base[name]
		got, ok := results[name]
		if ok && opts.mode == modeAlloc && !got.hasMem {
			ok = false // line had no -benchmem columns: nothing to gate
		}
		if ok && opts.mode == modeThroughput && !got.hasSpeed {
			ok = false
		}
		if !ok {
			r := row{name: name, base: b, verdict: verdictMissing}
			if !opts.allowMissing {
				failed = true
				r.reasons = append(r.reasons, "benchmark missing from input")
			}
			rows = append(rows, r)
			continue
		}
		r := row{name: name, base: b, got: got, verdict: verdictOK}
		// A baseline entry may pin its own tolerance (measurement.Regress);
		// otherwise the mode-wide -regress applies.
		regress := opts.regress
		if b.Regress > 0 {
			regress = b.Regress
		}
		switch opts.mode {
		case modeThroughput:
			if b.MBPerS > 0 && belowFloor(got.MBPerS, b.MBPerS, regress) {
				r.reasons = append(r.reasons, fmt.Sprintf("MB/s %.1f < %.1f-%.0f%%", got.MBPerS, b.MBPerS, regress*100))
			}
		default: // alloc
			if exceeds(got.BytesPerOp, b.BytesPerOp, regress, opts.slackBytes) {
				r.reasons = append(r.reasons, fmt.Sprintf("B/op %d > %d+%.0f%%+%d", got.BytesPerOp, b.BytesPerOp, regress*100, opts.slackBytes))
			}
			if exceeds(got.AllocsPerOp, b.AllocsPerOp, regress, opts.slackAllocs) {
				r.reasons = append(r.reasons, fmt.Sprintf("allocs/op %d > %d+%.0f%%+%d", got.AllocsPerOp, b.AllocsPerOp, regress*100, opts.slackAllocs))
			}
		}
		if len(r.reasons) > 0 {
			r.verdict = verdictFail
			failed = true
		}
		rows = append(rows, r)
	}

	// Benchmarks present in the run but absent from the baseline:
	// informational only — they need a baseline entry, not a verdict.
	extra := make([]string, 0)
	for name := range results {
		if _, ok := base[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		rows = append(rows, row{name: name, got: results[name], verdict: verdictNew})
	}
	return rows, failed
}

// failingNames collects every benchmark that contributed to a failed gate:
// FAIL verdicts and (unless -allow-missing) MISSING ones, in table order.
// The final summary line enumerates them all so a multi-benchmark
// regression is diagnosable from the last line of CI output alone.
func failingNames(rows []row) []string {
	var bad []string
	for _, r := range rows {
		if len(r.reasons) > 0 {
			bad = append(bad, r.name)
		}
	}
	return bad
}

// renderRows formats the comparison as an aligned table.
func renderRows(rows []row, set string, opts options) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "baseline set %q, mode %s, tolerance %.0f%%\n", set, opts.mode, opts.regress*100)
	line := func(name string, cells []string, note string) {
		fmt.Fprintf(&sb, "%-44s", name)
		for _, c := range cells {
			fmt.Fprintf(&sb, " %13s", c)
		}
		fmt.Fprintf(&sb, "  %s\n", note)
	}
	// Cells alternate baseline, run.
	if opts.mode == modeThroughput {
		line("benchmark", []string{"base MB/s", "got MB/s"}, "verdict")
	} else {
		line("benchmark", []string{"base B/op", "got B/op", "base allocs", "got allocs"}, "verdict")
	}
	for _, r := range rows {
		var cells []string
		if opts.mode == modeThroughput {
			cells = []string{fmtMBps(r.base.MBPerS), fmtMBps(r.got.MBPerS)}
		} else {
			cells = []string{
				strconv.FormatInt(r.base.BytesPerOp, 10), strconv.FormatInt(r.got.BytesPerOp, 10),
				strconv.FormatInt(r.base.AllocsPerOp, 10), strconv.FormatInt(r.got.AllocsPerOp, 10),
			}
		}
		for i := range cells {
			if (r.verdict == verdictMissing && i%2 == 1) || (r.verdict == verdictNew && i%2 == 0) {
				cells[i] = "-"
			}
		}
		note := r.verdict
		if len(r.reasons) > 0 {
			note += " (" + strings.Join(r.reasons, "; ") + ")"
		}
		line(r.name, cells, note)
	}
	return sb.String()
}

// fmtMBps renders a throughput, "-" when unset (zero).
func fmtMBps(v float64) string {
	if v == 0 {
		return "-"
	}
	return strconv.FormatFloat(v, 'f', 2, 64)
}
