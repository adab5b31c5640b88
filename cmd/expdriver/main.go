// Command expdriver regenerates the paper's evaluation: every figure and
// table of "Evaluating Adaptive Compression to Mitigate the Effects of
// Shared I/O in Clouds" (IPDPS 2011) plus the ablation studies listed in
// DESIGN.md. With no flags it runs everything at the paper's 50 GB volume.
//
// Usage:
//
//	expdriver [-fig1] [-fig2] [-fig3] [-table2] [-fig4] [-fig5] [-fig6]
//	          [-ablations] [-claims] [-calibrate] [-gb N] [-runs N] [-seed N]
//	          [-live-profiles] [-csv DIR]
//
// -live-profiles recalibrates the transfer model from this machine's own
// codecs instead of the paper-derived reference profiles (Table II only
// reports the reference profile by default so output is reproducible).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"adaptio/internal/block"
	"adaptio/internal/cloudsim"
	"adaptio/internal/experiments"
	"adaptio/internal/obs"
	"adaptio/internal/scenario"
	"adaptio/internal/trace"
)

// settings are the flags the paper experiments read.
type settings struct {
	volume       int64
	runs         int
	seed         uint64
	liveProfiles bool
}

// emitFunc prints one rendered table and, under -csv, saves its raw data as
// csvName.csv; an empty csvName saves nothing.
type emitFunc func(text, csvName, csv string)

// runFunc runs one experiment, hands each table it renders to emit, and
// reports whether a paper claim failed.
type runFunc func(s settings, emit emitFunc) (failed bool, err error)

// paper is the paper's evaluation in the order a full run prints it. Each
// entry's flag selects it alone; with none set, every entry runs.
var paper = []struct {
	flag, help string
	run        runFunc
}{
	{"fig1", "Figure 1: CPU utilization accuracy", func(s settings, emit emitFunc) (bool, error) {
		rows, err := experiments.Fig1CPUAccuracy(120, s.seed)
		if err == nil {
			emit(experiments.RenderFig1(rows), "fig1_cpu_accuracy", experiments.CSVFig1(rows))
		}
		return false, err
	}},
	{"fig2", "Figure 2: network throughput distribution", dist(experiments.Fig2NetThroughput,
		"Figure 2: network I/O throughput in the sending VM", "MBit/s", "fig2_net_throughput")},
	{"fig3", "Figure 3: file write throughput distribution", dist(experiments.Fig3FileWriteThroughput,
		"Figure 3: file I/O throughput (write) in the VM", "MB/s", "fig3_file_write")},
	{"table2", "Table II: completion time grid", runTableII},
	{"fig4", "Figure 4: adaptivity trace (HIGH, no load)", traced(experiments.Fig4Trace,
		"Figure 4: DYNAMIC on HIGH data, no background traffic", "fig4_trace")},
	{"fig5", "Figure 5: adaptivity trace (LOW, 2 connections)", traced(experiments.Fig5Trace,
		"Figure 5: DYNAMIC on LOW data, two background connections", "fig5_trace")},
	{"fig6", "Figure 6: compressibility switching", traced(experiments.Fig6Switch,
		"Figure 6: HIGH/LOW alternating every 10 GB", "fig6_trace")},
	{"ablations", "ablations A1-A6", runAblations},
	{"claims", "paper claims checklist (PASS/FAIL per quantitative claim)", func(s settings, emit emitFunc) (bool, error) {
		cl, err := experiments.VerifyClaims(s.volume, s.seed)
		if err == nil {
			emit(experiments.RenderClaims(cl)+"\n", "", "")
		}
		return !experiments.AllPass(cl), err
	}},
	{"calibrate", "live codec calibration", func(s settings, emit emitFunc) (bool, error) {
		ms, _, err := experiments.Calibrate(0)
		if err == nil {
			emit(experiments.RenderCalibration(ms), "codec_calibration", experiments.CSVCalibration(ms))
		}
		return false, err
	}},
}

func main() {
	selected := make([]*bool, len(paper))
	for i, e := range paper {
		selected[i] = flag.Bool(e.flag, false, e.help)
	}
	var (
		gb         = flag.Float64("gb", 50, "data volume per transfer in GB (decimal)")
		runs       = flag.Int("runs", 5, "repetitions per Table II cell")
		seed       = flag.Uint64("seed", 2011, "random seed")
		liveProf   = flag.Bool("live-profiles", false, "drive Table II with profiles measured live from this repo's codecs instead of the paper-derived reference")
		csvDir     = flag.String("csv", "", "also write each experiment's raw data as CSV into this directory")
		scenName   = flag.String("scenario", "", "run a scenario-DSL scenario instead of the paper experiments: a built-in name ("+strings.Join(scenario.BuiltinNames(), ", ")+" — docs/scenarios.md) or a path to a scenario JSON file")
		decider    = flag.String("decider", "", "for scenario-DSL runs: level-selection policy driving the adaptive variant (algone, bandit, ewma — docs/deciders.md)")
		dmatrix    = flag.Bool("decider-matrix", false, "run the Table II completion-time matrix under every registered decider policy plus the CheatStick sentinel (docs/deciders.md)")
		jsonOut    = flag.String("json-out", "", "for -decider-matrix: write the JSON artifact to this file (BENCH_decider.json is -seed 2011; go test ./internal/experiments/ compares it byte-for-byte)")
		metricsOut = flag.String("metrics-out", "", "for scenario-DSL runs: write the JSON result artifact to this file (CI artifact)")
		parallel   = flag.Int("parallel", 4, "for scenario-DSL runs: variants simulated concurrently (results are byte-identical for any value)")
		rig        = flag.String("rig", "", "for scenario-DSL runs: apply a sentinel property-breaker (test use only; see internal/scenario.Rig)")
		maxWall    = flag.Duration("max-wall", 0, "for scenario-DSL runs: fail unless the run finishes within this wall-clock budget (0 = no budget)")
	)
	flag.Parse()

	if *dmatrix {
		os.Exit(runDeciderMatrix(*seed, *jsonOut))
	}
	if *scenName != "" {
		os.Exit(runScenario(*scenName, *seed, *parallel, *rig, *decider, *metricsOut, *maxWall))
	}
	if *decider != "" {
		fmt.Fprintln(os.Stderr, "expdriver: -decider only applies to scenario-DSL runs (-scenario <name|file>)")
		os.Exit(2)
	}

	// Process-wide metrics: the experiments run in-process, so the buffer
	// arena's counters summarize the run's data-plane churn. Printed at the
	// end of the run.
	reg := obs.NewRegistry()
	block.PublishMetrics(reg.Scope("block"))

	emit := func(text, csvName, csv string) {
		fmt.Print(text)
		if *csvDir == "" || csvName == "" {
			return
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "expdriver: csv dir: %v\n", err)
			os.Exit(1)
		}
		path := filepath.Join(*csvDir, csvName+".csv")
		if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "expdriver: write %s: %v\n", path, err)
			os.Exit(1)
		}
	}

	s := settings{volume: int64(*gb * 1e9), runs: *runs, seed: *seed, liveProfiles: *liveProf}
	all := !slices.ContainsFunc(selected, func(on *bool) bool { return *on })
	exitCode := 0
	for i, e := range paper {
		if !all && !*selected[i] {
			continue
		}
		failed, err := e.run(s, emit)
		if err != nil {
			fmt.Fprintf(os.Stderr, "expdriver: %s: %v\n", e.flag, err)
			os.Exit(1)
		}
		if failed {
			exitCode = 1
		}
	}

	fmt.Println("--- end-of-run process metrics ---")
	fmt.Print(reg.RenderText())
	if exitCode != 0 {
		os.Exit(exitCode)
	}
}

// dist runs Figure 2 or 3: a per-platform throughput distribution.
func dist(fig func(int64, uint64) ([]experiments.DistRow, error), title, unit, csvName string) runFunc {
	return func(s settings, emit emitFunc) (bool, error) {
		rows, err := fig(s.volume, s.seed)
		if err == nil {
			emit(experiments.RenderDist(title, unit, rows)+"\n", csvName, experiments.CSVDist(rows))
		}
		return false, err
	}
}

// traced runs Figure 4, 5 or 6: one adaptive transfer's decision trace.
func traced(fig func(int64, uint64) (*trace.Trace, error), title, csvName string) runFunc {
	return func(s settings, emit emitFunc) (bool, error) {
		tr, err := fig(s.volume, s.seed)
		if err == nil {
			emit(tr.Render(title, experiments.LevelNames, 100)+"\n", csvName, experiments.CSVTrace(tr))
		}
		return false, err
	}
}

// runTableII runs Table II on the paper's evaluation platform, against
// live-calibrated codec profiles under -live-profiles.
func runTableII(s settings, emit emitFunc) (bool, error) {
	cfg := experiments.TableIIConfig{
		TotalBytes: s.volume,
		Runs:       s.runs,
		Platform:   cloudsim.KVMParavirt,
		Seed:       s.seed,
	}
	if s.liveProfiles {
		ms, profiles, err := experiments.Calibrate(0)
		if err != nil {
			return false, fmt.Errorf("live calibration: %w", err)
		}
		emit(experiments.RenderCalibration(ms)+"(Table II below uses the live-calibrated profiles)\n", "", "")
		cfg.Profiles = profiles
	}
	res, err := experiments.TableII(cfg)
	if err == nil {
		emit(res.Render(), "table2_completion_times", res.CSVTableII())
	}
	return false, err
}

// runAblations runs A1-A6. A6 times live codecs, so it saves no CSV.
func runAblations(s settings, emit emitFunc) (bool, error) {
	a1, err := experiments.AblationAlpha(nil, s.volume, s.seed)
	if err != nil {
		return false, fmt.Errorf("A1: %w", err)
	}
	emit(experiments.RenderAblation("Ablation A1: tolerance band alpha (MODERATE, 2 conns)", a1)+"\n",
		"ablation_a1_alpha", experiments.CSVAblation(a1))
	a2, err := experiments.AblationWindow(nil, s.volume, s.seed)
	if err != nil {
		return false, fmt.Errorf("A2: %w", err)
	}
	emit(experiments.RenderAblation("Ablation A2: decision window t (Fig 6 workload)", a2)+"\n",
		"ablation_a2_window", experiments.CSVAblation(a2))
	a3, err := experiments.AblationBackoff(s.volume, s.seed)
	if err != nil {
		return false, fmt.Errorf("A3: %w", err)
	}
	emit(experiments.RenderAblation("Ablation A3: exponential backoff (HIGH, no load)", a3)+"\n",
		"ablation_a3_backoff", experiments.CSVAblation(a3))
	a4, err := experiments.AblationBaselines(s.volume, s.seed)
	if err != nil {
		return false, fmt.Errorf("A4: %w", err)
	}
	emit(experiments.RenderBaselines(a4)+"\n", "ablation_a4_baselines", experiments.CSVBaselines(a4))
	a5, err := experiments.FileChannel(s.volume, s.seed)
	if err != nil {
		return false, fmt.Errorf("A5: %w", err)
	}
	emit(experiments.RenderFileChannel(a5)+"\n", "ablation_a5_filechannel", experiments.CSVFileChannel(a5))
	a6, err := experiments.AblationLadder(s.volume, s.seed)
	if err != nil {
		return false, fmt.Errorf("A6: %w", err)
	}
	emit(experiments.RenderLadder(a6)+"\n", "", "")
	return false, nil
}
