package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"

	"adaptio/internal/stats"
)

// aggregate is one metric over a run set.
type aggregate struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
}

func (a *aggregate) add(unit string, v float64) {
	a.Unit = unit
	a.Values = append(a.Values, v)
	a.Median, a.Min, a.Max = stats.Quantile(a.Values, 0.5), stats.Min(a.Values), stats.Max(a.Values)
}

// workloadResult is one workload's run set.
type workloadResult struct {
	Ops       []int                 `json:"ops"`
	OpsFailed []int                 `json:"ops_failed"`
	Metrics   map[string]*aggregate `json:"metrics"`
	Layers    map[string]*aggregate `json:"layers,omitempty"`
}

// resultFile is what -out writes and -check reads.
type resultFile struct {
	Go         string                     `json:"go"`
	NProc      int                        `json:"nproc"`
	GOMAXPROCS int                        `json:"gomaxprocs"`
	Seed       uint64                     `json:"seed"`
	Seconds    int                        `json:"seconds"`
	Runs       int                        `json:"runs"`
	Workloads  map[string]*workloadResult `json:"workloads"`
}

// runAll is the parent: it runs every workload in child processes of this
// executable, so that peak RSS, arena pools and GC state do not carry over
// from one workload to the next, and aggregates the run set.
func runAll(seed uint64, traced bool, runs int, out, check string, args []string) int {
	if check != "" && len(args) == 1 {
		prev, err := readResults(check)
		if err == nil {
			var cur *resultFile
			if cur, err = readResults(args[0]); err == nil {
				return compare(prev, cur)
			}
		}
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	cur := &resultFile{
		Go: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: seed, Seconds: runSeconds, Runs: runs, Workloads: make(map[string]*workloadResult),
	}
	code := 0
	for _, w := range workloads {
		wr := &workloadResult{Metrics: make(map[string]*aggregate)}
		cur.Workloads[w.name] = wr
		for i := 0; i < runs; i++ {
			res, readings, err := child(self, w.name, seed+uint64(i), false)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s run %d: %v\n", w.name, i, err)
				code = 1
				if res == nil {
					continue
				}
			}
			wr.Ops = append(wr.Ops, res.Attempted-res.Failed)
			wr.OpsFailed = append(wr.OpsFailed, res.Failed)
			addAll(wr.Metrics, endToEnd, readings)
		}
		if traced {
			res, readings, err := child(self, w.name, seed, true)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s traced run: %v\n", w.name, err)
				code = 1
			}
			if res != nil {
				wr.Layers = make(map[string]*aggregate)
				addAll(wr.Layers, perLayer, readings)
			}
		}
	}
	printResults(cur)
	if out != "" {
		data, err := json.MarshalIndent(cur, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	if check != "" {
		prev, err := readResults(check)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 2
		}
		code = max(code, compare(prev, cur))
	}
	return code
}

func addAll(into map[string]*aggregate, defs []metricDef, readings map[string]float64) {
	for _, d := range defs {
		if into[d.Name] == nil {
			into[d.Name] = &aggregate{}
		}
		into[d.Name].add(d.Unit, readings[d.Name])
	}
}

// child runs one workload in a process of its own and parses its last two
// lines: every reading by name, then the result. A run that printed both
// but failed returns them with the error.
func child(self, name string, seed uint64, traced bool) (*result, map[string]float64, error) {
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatUint(seed, 10), "-trace="+strconv.FormatBool(traced))
	cmd.Stderr = os.Stderr
	fmt.Fprintf(os.Stderr, "bench: %s seed=%d trace=%t ...\n", name, seed, traced)
	stdout, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var (
		res      result
		readings map[string]float64
	)
	err := fmt.Errorf("no result lines")
	if n := len(lines); n >= 2 && bytes.HasPrefix(lines[n-2], []byte(readingsPrefix)) {
		if err = json.Unmarshal(lines[n-2][len(readingsPrefix):], &readings); err == nil {
			err = json.Unmarshal(lines[n-1], &res)
		}
	}
	if err != nil {
		if runErr != nil {
			return nil, nil, runErr
		}
		return nil, nil, err
	}
	return &res, readings, runErr
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func printResults(f *resultFile) {
	fmt.Printf("bench: %s nproc=%d GOMAXPROCS=%d seed=%d seconds=%d runs=%d; all traffic is host loopback\n",
		f.Go, f.NProc, f.GOMAXPROCS, f.Seed, f.Seconds, f.Runs)
	for _, w := range workloads {
		wr := f.Workloads[w.name]
		if wr == nil {
			continue
		}
		fmt.Printf("\n%s  ops=%v ops_failed=%v\n", w.name, wr.Ops, wr.OpsFailed)
		printAggregates(w.name, endToEnd, wr.Metrics)
		if wr.Layers != nil {
			fmt.Printf("  per-layer ledger (one traced run):\n")
			printAggregates(w.name, perLayer, wr.Layers)
		}
	}
}

func printAggregates(workload string, defs []metricDef, aggs map[string]*aggregate) {
	for _, d := range defs {
		a := aggs[d.Name]
		if a == nil {
			continue
		}
		bound := ""
		if b, ok := d.Bounds[workload]; ok {
			bound = fmt.Sprintf(", bound %.0f%%", b*100)
		}
		fmt.Printf("  %-36s median %12.4f  min %12.4f  max %12.4f  %-6s n=%d (%s is better%s)\n",
			d.Name, a.Median, a.Min, a.Max, a.Unit, len(a.Values), d.Better, bound)
	}
}

// compare holds cur's end-to-end medians against prev's on every pair of
// metric and workload that has a bound: each may be worse by at most that.
// A pair that either file lacks, or that reads 0, fails the check: the run
// behind it crashed or measured nothing. It returns the exit code.
func compare(prev, cur *resultFile) int {
	if prev.Seed != cur.Seed || prev.Seconds != cur.Seconds {
		fmt.Fprintf(os.Stderr, "bench: run sets of seed %d, %d s and seed %d, %d s do not compare\n",
			prev.Seed, prev.Seconds, cur.Seed, cur.Seconds)
		return 2
	}
	code := 0
	fmt.Printf("\ncheck: medians of %d run(s) against %d run(s)\n", cur.Runs, prev.Runs)
	for _, w := range workloads {
		for _, d := range endToEnd {
			bound, ok := d.Bounds[w.name]
			if !ok {
				continue
			}
			pa, ca := prev.metric(w.name, d.Name), cur.metric(w.name, d.Name)
			if pa == nil || ca == nil {
				fmt.Printf("  %-17s %-15s MISSING from a run set\n", w.name, d.Name)
				code = 1
				continue
			}
			worse, err := worsening(d, pa.Median, ca.Median)
			if err != nil {
				fmt.Printf("  %-17s %-15s NOT MEASURED: %v\n", w.name, d.Name, err)
				code = 1
				continue
			}
			verdict := "ok"
			if worse > bound {
				verdict = "REGRESSION"
				code = 1
			}
			fmt.Printf("  %-17s %-15s %12.4f -> %12.4f %-6s %+7.2f%% worse (bound %4.0f%%)  %s\n",
				w.name, d.Name, pa.Median, ca.Median, d.Unit, worse*100, bound*100, verdict)
		}
	}
	return code
}

// metric returns the run set's aggregate of one end-to-end metric on one
// workload, nil if the file has none.
func (f *resultFile) metric(workload, name string) *aggregate {
	if wr := f.Workloads[workload]; wr != nil {
		return wr.Metrics[name]
	}
	return nil
}
