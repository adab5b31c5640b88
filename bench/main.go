// Command bench is the repository's end-to-end benchmark: five closed-loop
// workloads over the real data path (stream, tunnel, codecs, decider) on
// the host's loopback interface, every delivered byte verified. See
// README.md in this directory for the workloads, the metrics and how the
// layer metrics are expected to move the end-to-end ones.
//
// The package is a module of its own (go.mod here replaces adaptio with the
// parent directory): the benchmark driver wants a compiled benchmark to be a
// package with its own build file inside the benchmark's directory. From
// this directory:
//
//	go run .                      every workload, -runs times each, as child processes
//	go run . -trace               the same, plus one traced run each for the layer ledger
//	go run . -workload fast-relay one run in this process; the last line is the result as JSON
//	go run . -check prev.json     run, then compare with an earlier -out file against the bounds
//	go run . -check a.json b.json compare two -out files without running
//
// and from the repository root, as BENCHMARK.json does:
// go run -C bench adaptio/bench.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// runSeconds is the length of every timed run. The benchmark fixes it: four
// wire phases of 4 s, the shortest paced run ISSUE.md allows and the longest
// that fits the driver's 114 runs into its hour.
const runSeconds = 16

func main() {
	var (
		name     = flag.String("workload", "", "run this one workload in this process and print its result line")
		seed     = flag.Uint64("seed", 1, "seed of the generated inputs; run i of -runs uses seed+i")
		seconds  = flag.Int("seconds", runSeconds, "the driver passes BENCHMARK.json's run_seconds here; the run length is fixed, any other value is refused")
		trace    = flag.Bool("trace", false, "record spans and print the per-layer ledger (with -workload: instead of the end-to-end metrics)")
		traceOut = flag.String("trace-out", "", "with -workload and -trace: write the spans here, one JSON object per line")
		runs     = flag.Int("runs", 3, "untraced runs per workload")
		out      = flag.String("out", "", "write the aggregated results to this file")
		check    = flag.String("check", "", "compare against this earlier -out file; exit 1 if an end-to-end median worsened beyond its bound")
	)
	flag.CommandLine.Parse(driverArgs(os.Args[1:]))
	if *seconds != runSeconds || *runs < 1 {
		fmt.Fprintf(os.Stderr, "bench: -seconds is %d, -runs at least 1\n", runSeconds)
		os.Exit(2)
	}
	if *name != "" {
		os.Exit(runOne(*name, *seed, *trace, *traceOut))
	}
	os.Exit(runAll(*seed, *trace, *runs, *out, *check, flag.Args()))
}

// driverArgs rewrites the benchmark driver's `--trace 0` and `--trace 1`,
// a value in the next argument, which a boolean flag does not take, into
// `-trace=0` and `-trace=1`.
func driverArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		arg := args[i]
		if (arg == "-trace" || arg == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			arg += "=" + args[i+1]
			i++
		}
		out = append(out, arg)
	}
	return out
}

// loadWidth is the most connections or workers a workload uses.
func loadWidth() int { return min(runtime.NumCPU(), 4) }

// runOne runs one workload in this process: untraced for the end-to-end
// metrics, or the traced pass for the per-layer ledger. Its last line of
// output is the result as one JSON object.
func runOne(name string, seed uint64, traced bool, traceOut string) int {
	const run = runSeconds * time.Second
	w := workloadByName(name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
		return 2
	}
	fmt.Printf("bench: workload=%s seed=%d seconds=%g trace=%t nproc=%d GOMAXPROCS=%d %s loopback-only\n",
		name, seed, run.Seconds(), traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	var (
		readings map[string]float64
		res      result
		err      error
	)
	defs := driverEndToEnd()
	if traced {
		defs = perLayer
		readings, res, err = tracedPass(w, seed, run, traceOut)
	} else {
		readings, res, err = untracedPass(w, seed, run)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	// The result line carries the metrics BENCHMARK.json declares and no
	// others; the line before it carries every reading, for the parent.
	res.Metrics = fill(defs, readings)
	all, err := json.Marshal(readings)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Printf("%s%s\n%s\n", readingsPrefix, all, line)
	if !res.Correct {
		return 1
	}
	return 0
}

// readingsPrefix begins the line on which a workload process prints all its
// readings by name.
const readingsPrefix = "readings: "

func newEnv(run time.Duration) *env {
	return &env{run: run, warm: warmUp, workers: loadWidth(), static: -1}
}

// verdict folds the runs' op counts and failures into the result.
func verdict(res *result, runs ...*measured) {
	for _, m := range runs {
		res.Attempted += len(m.ops) + m.failed
		res.Failed += m.failed
	}
	res.Attempted = max(res.Attempted, 1)
	res.Correct = res.Failed == 0
}

// complain prints why runs were not correct.
func complain(runs ...*measured) {
	for _, m := range runs {
		for _, err := range m.errs {
			fmt.Fprintf(os.Stderr, "bench: FAILED: %v\n", err)
		}
	}
}

func untracedPass(w *workload, seed uint64, run time.Duration) (map[string]float64, result, error) {
	m, err := measure(w, seed, newEnv(run), setupPasses)
	if err != nil {
		return nil, result{}, err
	}
	readings, lat, err := m.endToEndReadings()
	if err != nil {
		return nil, result{}, err
	}
	var res result
	verdict(&res, m)
	complain(m)
	fmt.Printf("  ops=%d ops_failed=%d  op latency: %v ms  set-up passes: %d\n", len(m.ops), res.Failed, lat, len(m.setups))
	printReadings(endToEnd, readings, len(m.ops))
	return readings, res, nil
}

// tracedPass produces the per-layer ledger: the ladder over the workload's
// bytes, an untraced reference run, on the scarce workloads half-length
// static-level reference runs on the same schedule, and the traced run.
func tracedPass(w *workload, seed uint64, run time.Duration, traceOut string) (map[string]float64, result, error) {
	readings, err := runLadder(w.inputs(seed, newEnv(run)), loadWidth())
	if err != nil {
		return nil, result{}, err
	}
	ref, err := measure(w, seed, newEnv(run), 1)
	if err != nil {
		return nil, result{}, err
	}
	statics := make(map[int]*measured)
	if ref.s.paced != nil {
		for level := 0; level <= 2; level++ {
			e := newEnv(run / 2)
			e.warm, e.static = warmUp/4, level
			if statics[level], err = measure(w, seed, e, 1); err != nil {
				return nil, result{}, err
			}
		}
	}
	e := newEnv(run)
	e.rec = newRecorder()
	m, err := measure(w, seed, e, 1)
	if err != nil {
		return nil, result{}, err
	}
	for k, v := range m.layerReadings(ref) {
		readings[k] = v
	}
	res := result{}
	all := []*measured{ref, m}
	best := -1
	for level, sm := range statics {
		all = append(all, sm)
		if best < 0 || sm.goodputMBps() > statics[best].goodputMBps() {
			best = level
		}
	}
	switch {
	case best >= 0:
		readings["core.best_static_level"] = float64(best)
		readings["core.regret_vs_best_static"] = tax(ref.goodputMBps(), statics[best].goodputMBps())
	case m.s.echo == 0:
		readings["core.best_static_level"] = 1 // the level the workload pins
	}
	verdict(&res, all...)
	complain(all...)
	fmt.Printf("  ops=%d ops_failed=%d  spans=%d  traced goodput %.2f MB/s, untraced %.2f MB/s\n",
		len(m.ops), res.Failed, len(m.spans), m.goodputMBps(), ref.goodputMBps())
	printReadings(perLayer, readings, len(m.ops))
	if traceOut != "" {
		if err := writeSpans(traceOut, m.spans); err != nil {
			return nil, result{}, fmt.Errorf("trace-out: %w", err)
		}
	}
	return readings, res, nil
}

func printReadings(defs []metricDef, readings map[string]float64, samples int) {
	for _, d := range defs {
		fmt.Printf("  %-36s %14.4f %-6s (%s is better, n=%d)\n", d.Name, readings[d.Name], d.Unit, d.Better, samples)
	}
}
