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
// Each flag selects one entry of experiments.Paper, the harness table the
// golden test also runs. -live-profiles calibrates this machine's codecs
// once and drives Table II, and the claims that read it, with the measured
// profiles instead of the paper-derived reference ones (the default, so
// output is reproducible).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"adaptio/internal/block"
	"adaptio/internal/experiments"
	"adaptio/internal/obs"
	"adaptio/internal/scenario"
	"adaptio/internal/stream"
)

func main() {
	selected := make([]*bool, len(experiments.Paper))
	for i, e := range experiments.Paper {
		selected[i] = flag.Bool(e.Flag, false, e.Help)
	}
	var (
		gb         = flag.Float64("gb", 50, "data volume per transfer in GB (decimal), positive")
		runs       = flag.Int("runs", 5, "repetitions per Table II cell, at least 1")
		seed       = flag.Uint64("seed", 2011, "random seed")
		liveProf   = flag.Bool("live-profiles", false, "drive Table II and the claims with profiles measured live from this repo's codecs instead of the paper-derived reference")
		csvDir     = flag.String("csv", "", "also write each experiment's raw data as CSV into this directory")
		scenName   = flag.String("scenario", "", "run a scenario-DSL scenario instead of the paper experiments: a built-in name ("+strings.Join(scenario.BuiltinNames(), ", ")+" — docs/scenarios.md) or a path to a scenario JSON file")
		decider    = flag.String("decider", "", "for scenario-DSL runs: level-selection policy driving the adaptive variant (algone, bandit, ewma — docs/deciders.md)")
		dmatrix    = flag.Bool("decider-matrix", false, "run the Table II completion-time matrix under every registered decider policy plus the never-probe sentinel row (docs/deciders.md)")
		jsonOut    = flag.String("json-out", "", "for -decider-matrix: write the JSON artifact to this file (BENCH_decider.json is -seed 2011; go test ./internal/experiments/ compares it byte-for-byte)")
		metricsOut = flag.String("metrics-out", "", "for scenario-DSL runs: write the JSON result artifact to this file (CI artifact)")
		rig        = flag.String("rig", "", "for scenario-DSL runs: apply a sentinel property-breaker (test use only; see internal/scenario.Rig)")
		maxWall    = flag.Duration("max-wall", 0, "for scenario-DSL runs: fail unless the run finishes within this wall-clock budget (0 = no budget)")
	)
	flag.Parse()

	// Each mode reads only its own flags; one set for another mode would be
	// silently ignored, so it is a usage error.
	mode, reads := "the paper run", []string{"gb", "runs", "seed", "live-profiles", "csv"}
	for _, e := range experiments.Paper {
		reads = append(reads, e.Flag)
	}
	switch {
	case *dmatrix:
		mode, reads = "-decider-matrix", []string{"decider-matrix", "seed", "json-out"}
	case *scenName != "":
		mode, reads = "-scenario", []string{"scenario", "seed", "decider", "rig", "metrics-out", "max-wall"}
	}
	var ignored []string
	flag.Visit(func(f *flag.Flag) {
		if !slices.Contains(reads, f.Name) {
			ignored = append(ignored, "-"+f.Name)
		}
	})
	if len(ignored) > 0 {
		fmt.Fprintf(os.Stderr, "expdriver: %s does not read %s\n", mode, strings.Join(ignored, ", "))
		os.Exit(2)
	}

	if *dmatrix {
		os.Exit(runDeciderMatrix(*seed, *jsonOut))
	}
	if *scenName != "" {
		os.Exit(runScenario(*scenName, *seed, *rig, *decider, *metricsOut, *maxWall))
	}

	// Process-wide metrics: the experiments run in-process, so the buffer
	// arena's counters summarize the run's data-plane churn. Printed at the
	// end of the run.
	reg := obs.NewRegistry()
	block.PublishMetrics(reg.Scope("block"))

	cfg := experiments.TableIIConfig{TotalBytes: int64(*gb * 1e9), Runs: *runs, Seed: *seed}
	if cfg.TotalBytes < 1 || cfg.Runs < 1 {
		fmt.Fprintln(os.Stderr, "expdriver: -gb must be positive and -runs at least 1")
		flag.Usage()
		os.Exit(2)
	}
	if *liveProf {
		// One calibration serves the whole run, so Table II and the claims
		// read the same profiles.
		profiles, err := experiments.Calibrate(stream.DefaultLadder(), 0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "expdriver: live calibration: %v\n", err)
			os.Exit(1)
		}
		cfg.Profiles = profiles
	}
	all := !slices.ContainsFunc(selected, func(on *bool) bool { return *on })
	exitCode := 0
	for i, e := range experiments.Paper {
		if !all && !*selected[i] {
			continue
		}
		for _, run := range []func(experiments.TableIIConfig) ([]experiments.Section, error){e.Run, e.Live} {
			if run == nil {
				continue
			}
			sections, err := run(cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "expdriver: %s: %v\n", e.Flag, err)
				os.Exit(1)
			}
			for _, s := range sections {
				fmt.Print(s.Text)
				if s.Failed {
					exitCode = 1
				}
				if err := saveCSV(*csvDir, s); err != nil {
					fmt.Fprintf(os.Stderr, "expdriver: %v\n", err)
					os.Exit(1)
				}
			}
		}
	}

	fmt.Println("--- end-of-run process metrics ---")
	fmt.Print(reg.RenderText())
	if exitCode != 0 {
		os.Exit(exitCode)
	}
}

// saveCSV writes a section's raw data as dir/<CSVName>.csv; with no dir or
// no CSV it does nothing.
func saveCSV(dir string, s experiments.Section) error {
	if dir == "" || s.CSVName == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("csv dir: %w", err)
	}
	path := filepath.Join(dir, s.CSVName+".csv")
	if err := os.WriteFile(path, []byte(s.CSV), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}
