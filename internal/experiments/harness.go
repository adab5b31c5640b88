package experiments

import (
	"fmt"

	"adaptio/internal/stream"
)

// Section is one block of the harness's output.
type Section struct {
	// Name labels the section in the harness golden file.
	Name string
	// Text is the rendered table or figure, printed as is.
	Text string
	// CSVName is the file stem the raw data is saved under; empty saves
	// nothing.
	CSVName, CSV string
	// Failed reports that a paper claim in the section failed.
	Failed bool
}

// Experiment is one entry of the paper harness: the flag that selects it
// and the runs that return the sections it prints, which are meaningless
// when a run also returns an error. Run, when set, returns the sections the
// simulation computes. Live, when set, returns those whose numbers come
// from timing this machine's codecs, which differ from run to run; they
// print after Run's. Every run reads the same four inputs, the volume, runs
// per Table II cell, seed and codec profiles of a TableIIConfig, and
// ignores those it has no use for.
type Experiment struct {
	Flag, Help string
	Run, Live  func(cfg TableIIConfig) ([]Section, error)
}

// Paper is the paper's evaluation in the order a full run prints it.
// cmd/expdriver and the harness golden both run it.
var Paper = []Experiment{
	{Flag: "fig1", Help: "Figure 1: CPU utilization accuracy", Run: func(cfg TableIIConfig) ([]Section, error) {
		rows, err := Fig1CPUAccuracy(cfg.Seed)
		return []Section{{Name: "fig1", Text: RenderFig1(rows), CSVName: "fig1_cpu_accuracy", CSV: CSVFig1(rows)}}, err
	}},
	{Flag: "fig2", Help: "Figure 2: network throughput distribution", Run: func(cfg TableIIConfig) ([]Section, error) {
		rows, err := Fig2NetThroughput(cfg.TotalBytes, cfg.Seed)
		return distSection("fig2", "Figure 2: network I/O throughput in the sending VM", "MBit/s", "fig2_net_throughput", rows), err
	}},
	{Flag: "fig3", Help: "Figure 3: file write throughput distribution", Run: func(cfg TableIIConfig) ([]Section, error) {
		rows, err := Fig3FileWriteThroughput(cfg.TotalBytes, cfg.Seed)
		return distSection("fig3", "Figure 3: file I/O throughput (write) in the VM", "MB/s", "fig3_file_write", rows), err
	}},
	{Flag: "table2", Help: "Table II: completion time grid", Run: runTableII},
	{Flag: "fig4", Help: "Figure 4: adaptivity trace (HIGH, no load)", Run: func(cfg TableIIConfig) ([]Section, error) {
		tr, err := Fig4Trace(cfg.TotalBytes, cfg.Seed)
		return traceSection("fig4", "Figure 4: DYNAMIC on HIGH data, no background traffic", tr), err
	}},
	{Flag: "fig5", Help: "Figure 5: adaptivity trace (LOW, 2 connections)", Run: func(cfg TableIIConfig) ([]Section, error) {
		tr, err := Fig5Trace(cfg.TotalBytes, cfg.Seed)
		return traceSection("fig5", "Figure 5: DYNAMIC on LOW data, two background connections", tr), err
	}},
	{Flag: "fig6", Help: "Figure 6: compressibility switching", Run: func(cfg TableIIConfig) ([]Section, error) {
		tr, err := Fig6Switch(cfg.TotalBytes, cfg.Seed)
		return traceSection("fig6", "Figure 6: HIGH/LOW alternating every 10 GB", tr), err
	}},
	{Flag: "ablations", Help: "ablations A1-A6", Run: runAblations, Live: func(cfg TableIIConfig) ([]Section, error) {
		a6, err := AblationLadder(cfg.TotalBytes, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("a6: %w", err)
		}
		return []Section{{Name: "a6", Text: RenderLadder(a6) + "\n"}}, nil
	}},
	{Flag: "claims", Help: "paper claims checklist (PASS/FAIL per quantitative claim)", Run: func(cfg TableIIConfig) ([]Section, error) {
		cl, err := VerifyClaims(cfg)
		return []Section{{Name: "claims", Text: RenderClaims(cl) + "\n", Failed: !AllPass(cl)}}, err
	}},
	{Flag: "calibrate", Help: "live codec calibration", Live: func(cfg TableIIConfig) ([]Section, error) {
		// Profiles given are the run's own calibration (expdriver
		// -live-profiles): print what Table II ran against.
		profiles := cfg.Profiles
		if profiles == nil {
			var err error
			if profiles, err = Calibrate(stream.DefaultLadder(), 0); err != nil {
				return nil, err
			}
		}
		return []Section{{Name: "calibration", Text: RenderCalibration(profiles),
			CSVName: "codec_calibration", CSV: CSVCalibration(profiles)}}, nil
	}},
}

// distSection is Figure 2's or 3's per-platform throughput distribution.
func distSection(name, title, unit, csvName string, rows []DistRow) []Section {
	return []Section{{Name: name, Text: RenderDist(title, unit, rows) + "\n", CSVName: csvName, CSV: CSVDist(rows)}}
}

// traceSection is Figure 4's, 5's or 6's decision trace.
func traceSection(name, title string, tr Trace) []Section {
	return []Section{{Name: name, Text: tr.Render(title) + "\n", CSVName: name + "_trace", CSV: CSVTrace(tr)}}
}

// runTableII runs Table II. With profiles set, which cmd/expdriver does under
// -live-profiles, it first prints the profiles the sweep runs against.
func runTableII(cfg TableIIConfig) ([]Section, error) {
	var out []Section
	if cfg.Profiles != nil {
		out = append(out, Section{Name: "calibration",
			Text: RenderCalibration(cfg.Profiles) + "(Table II below uses the live-calibrated profiles)\n"})
	}
	res, err := TableII(cfg)
	return append(out, Section{Name: "table2", Text: res.Render(), CSVName: "table2_completion_times", CSV: res.CSVTableII()}), err
}

// runAblations runs A1-A5; A6 is the entry's live run, and saves no CSV.
func runAblations(cfg TableIIConfig) ([]Section, error) {
	volume, seed := cfg.TotalBytes, cfg.Seed
	var out []Section
	for _, a := range []struct {
		name, title, csvName string
		run                  func(int64, uint64) ([]AblationRow, error)
	}{
		{"a1", "Ablation A1: tolerance band alpha (MODERATE, 2 conns)", "ablation_a1_alpha", AblationAlpha},
		{"a2", "Ablation A2: decision window t (Fig 6 workload)", "ablation_a2_window", AblationWindow},
		{"a3", "Ablation A3: exponential backoff (HIGH, no load)", "ablation_a3_backoff", AblationBackoff},
	} {
		rows, err := a.run(volume, seed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a.name, err)
		}
		out = append(out, Section{Name: a.name, Text: RenderAblation(a.title, rows) + "\n", CSVName: a.csvName, CSV: CSVAblation(rows)})
	}
	a4, err := AblationBaselines(volume, seed)
	if err != nil {
		return nil, fmt.Errorf("a4: %w", err)
	}
	out = append(out, Section{Name: "a4", Text: RenderBaselines(a4) + "\n", CSVName: "ablation_a4_baselines", CSV: CSVBaselines(a4)})
	a5, err := FileChannel(volume, seed)
	if err != nil {
		return nil, fmt.Errorf("a5: %w", err)
	}
	return append(out, Section{Name: "a5", Text: RenderFileChannel(a5) + "\n", CSVName: "ablation_a5_filechannel", CSV: CSVFileChannel(a5)}), nil
}
