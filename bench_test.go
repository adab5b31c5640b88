// Benchmark harness: one testing.B benchmark per table and figure of the
// paper plus the ablations (DESIGN.md's experiment index). Each benchmark
// regenerates its experiment end to end and reports the headline numbers as
// benchmark metrics; the rendered table/figure is attached via b.Log (run
// with `go test -bench . -v` to see them, or use cmd/expdriver for plain
// output).
package adaptio_test

import (
	"testing"

	"adaptio/internal/cloudsim"
	"adaptio/internal/corpus"
	"adaptio/internal/experiments"
)

// benchVolume keeps the default `go test -bench .` run fast while preserving
// every shape property; cmd/expdriver defaults to the paper's full 50 GB.
const benchVolume = 10e9

// BenchmarkFig1CPUAccuracy regenerates Figure 1 (a)-(d): guest- vs
// host-reported CPU utilization for four I/O operations on five platforms,
// >= 120 one-second samples each.
func BenchmarkFig1CPUAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig1CPUAccuracy(120, 2011)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.RenderFig1(rows))
			var worst float64
			for _, r := range rows {
				if g := r.GapFactor(); g > worst {
					worst = g
				}
			}
			b.ReportMetric(worst, "worst-gap-x")
		}
	}
}

// BenchmarkFig2NetThroughputDist regenerates Figure 2: the distribution of
// network send throughput observed inside the sending VM.
func BenchmarkFig2NetThroughputDist(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig2NetThroughput(benchVolume, 2011)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.RenderDist("Figure 2", "MBit/s", rows))
			for _, r := range rows {
				if r.Platform == cloudsim.EC2 {
					b.ReportMetric(r.Summary.SD, "ec2-sd-MBit/s")
				}
			}
		}
	}
}

// BenchmarkFig3FileWriteDist regenerates Figure 3: file-write throughput
// distributions including the XEN host-cache anomaly.
func BenchmarkFig3FileWriteDist(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig3FileWriteThroughput(benchVolume, 2011)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.RenderDist("Figure 3", "MB/s", rows))
			for _, r := range rows {
				if r.Platform == cloudsim.XenParavirt {
					b.ReportMetric(float64(r.CacheResidentBytes)/1e9, "xen-cached-GB")
				}
			}
		}
	}
}

// BenchmarkTableIICompletionTimes regenerates the paper's central Table II:
// mean (SD) completion times for every compressibility x contention x scheme
// cell. The reported metric is the worst DYNAMIC-vs-best-static gap across
// the grid (the paper's bound is 22%).
func BenchmarkTableIICompletionTimes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.TableII(experiments.TableIIConfig{
			TotalBytes: benchVolume,
			Runs:       3,
			Platform:   cloudsim.KVMParavirt,
			Seed:       2011,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Render())
			worst := 0.0
			for _, kind := range res.Kinds {
				for _, bg := range res.Backgrounds {
					if g := res.DynamicGap(kind, bg); g > worst {
						worst = g
					}
				}
			}
			b.ReportMetric(worst*100, "worst-dyn-gap-%")
			no := res.Cells[corpus.High][3][0].Mean
			dyn := res.Cells[corpus.High][3][experiments.Dynamic].Mean
			b.ReportMetric(no/dyn, "max-speedup-x")
		}
	}
}

// BenchmarkFig4TraceHighNoLoad regenerates Figure 4: the adaptivity trace on
// highly compressible data with no background traffic.
func BenchmarkFig4TraceHighNoLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr, err := experiments.Fig4Trace(benchVolume, 2011)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + tr.Render("Figure 4", experiments.LevelNames, 100))
			b.ReportMetric(tr.LevelOccupancy()[1]*100, "light-occupancy-%")
			b.ReportMetric(float64(tr.Switches()), "switches")
		}
	}
}

// BenchmarkFig5TraceLowTwoConns regenerates Figure 5: poorly compressible
// data under contention, where probing continues throughout.
func BenchmarkFig5TraceLowTwoConns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr, err := experiments.Fig5Trace(benchVolume, 2011)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + tr.Render("Figure 5", experiments.LevelNames, 100))
			b.ReportMetric(float64(tr.Switches()), "switches")
		}
	}
}

// BenchmarkFig6CompressibilitySwitch regenerates Figure 6: HIGH and LOW data
// alternating every 10 GB over a 50 GB transfer.
func BenchmarkFig6CompressibilitySwitch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr, err := experiments.Fig6Switch(experiments.FiftyGB, 2011)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + tr.Render("Figure 6", experiments.LevelNames, 100))
			occ := tr.LevelOccupancy()
			b.ReportMetric(occ[0]*100, "no-occupancy-%")
			b.ReportMetric(occ[1]*100, "light-occupancy-%")
		}
	}
}

// BenchmarkAblationAlphaSweep regenerates ablation A1: the tolerance band α.
func BenchmarkAblationAlphaSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationAlpha(nil, benchVolume, 2011)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.RenderAblation("Ablation A1: alpha sweep", rows))
		}
	}
}

// BenchmarkAblationWindowSweep regenerates ablation A2: the decision
// interval t.
func BenchmarkAblationWindowSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationWindow(nil, benchVolume, 2011)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.RenderAblation("Ablation A2: window sweep", rows))
		}
	}
}

// BenchmarkAblationBackoff regenerates ablation A3: exponential backoff
// on/off/capped.
func BenchmarkAblationBackoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationBackoff(benchVolume, 2011)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.RenderAblation("Ablation A3: backoff", rows))
			b.ReportMetric(rows[1].CompletionSeconds/rows[0].CompletionSeconds, "no-backoff-slowdown-x")
		}
	}
}

// BenchmarkAblationBaselines regenerates ablation A4: the related-work
// decision models under virtualized metrics.
func BenchmarkAblationBaselines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationBaselines(benchVolume, 2011)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.RenderBaselines(rows))
		}
	}
}

// BenchmarkAblationFileChannel regenerates ablation A5 (the paper's future
// work): adaptive compression on file channels, including the XEN host-cache
// distortion.
func BenchmarkAblationFileChannel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.FileChannel(benchVolume, 2011)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.RenderFileChannel(rows))
			for _, r := range rows {
				if r.Platform == cloudsim.XenParavirt && r.Kind == corpus.Low && r.Scheme == "DYNAMIC" {
					b.ReportMetric(float64(r.LevelSwitches), "xen-low-switches")
					b.ReportMetric(r.CacheResidentGB, "xen-low-cached-GB")
				}
			}
		}
	}
}

// BenchmarkAblationLadder regenerates ablation A6: the paper's four-level
// ladder vs the six-level extended ladder, both live-calibrated from this
// machine's codecs.
func BenchmarkAblationLadder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationLadder(benchVolume, 2011)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.RenderLadder(rows))
		}
	}
}

// BenchmarkCodecCalibration measures this repository's real codecs on the
// synthetic corpus — the live counterpart to the paper-derived reference
// profiles (compare the two in the logged table).
func BenchmarkCodecCalibration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ms, _, err := experiments.Calibrate(2 << 20)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.RenderCalibration(ms))
		}
	}
}
