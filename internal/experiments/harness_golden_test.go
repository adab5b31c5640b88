package experiments

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"adaptio/internal/cloudsim"
)

// TestHarnessGolden pins the paper harness byte for byte: the rendered text
// and CSV of Figures 1-6, Table II, ablations A1-A5 and the claims checklist
// at 2 GB and seed 7. Every one of them is a deterministic simulation, so any
// difference is a behaviour change. A6 and the codec calibration time live
// codecs and are left out. At this volume some claims read FAIL; the
// checklist is pinned as text, not as a verdict. A change that means to move
// a number reruns with -update and commits the diff.
func TestHarnessGolden(t *testing.T) {
	const (
		volume = int64(2e9)
		seed   = 7
		path   = "testdata/harness.golden"
	)
	var sb strings.Builder
	section := func(name, text string) {
		fmt.Fprintf(&sb, "=== %s ===\n%s", name, text)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	fig1, err := Fig1CPUAccuracy(120, seed)
	must(err)
	section("fig1", RenderFig1(fig1))
	section("fig1_cpu_accuracy.csv", CSVFig1(fig1))

	fig2, err := Fig2NetThroughput(volume, seed)
	must(err)
	section("fig2", RenderDist("Figure 2: network I/O throughput in the sending VM", "MBit/s", fig2))
	section("fig2_net_throughput.csv", CSVDist(fig2))

	fig3, err := Fig3FileWriteThroughput(volume, seed)
	must(err)
	section("fig3", RenderDist("Figure 3: file I/O throughput (write) in the VM", "MB/s", fig3))
	section("fig3_file_write.csv", CSVDist(fig3))

	table, err := TableII(TableIIConfig{TotalBytes: volume, Runs: 2, Platform: cloudsim.KVMParavirt, Seed: seed})
	must(err)
	section("table2", table.Render())
	section("table2_completion_times.csv", table.CSVTableII())

	fig4, err := Fig4Trace(volume, seed)
	must(err)
	section("fig4", fig4.Render("Figure 4: DYNAMIC on HIGH data, no background traffic", LevelNames, 100))
	section("fig4_trace.csv", CSVTrace(fig4))

	fig5, err := Fig5Trace(volume, seed)
	must(err)
	section("fig5", fig5.Render("Figure 5: DYNAMIC on LOW data, two background connections", LevelNames, 100))
	section("fig5_trace.csv", CSVTrace(fig5))

	fig6, err := Fig6Switch(volume, seed)
	must(err)
	section("fig6", fig6.Render("Figure 6: HIGH/LOW alternating every 10 GB", LevelNames, 100))
	section("fig6_trace.csv", CSVTrace(fig6))

	a1, err := AblationAlpha(nil, volume, seed)
	must(err)
	section("a1", RenderAblation("Ablation A1: tolerance band alpha (MODERATE, 2 conns)", a1))
	section("ablation_a1_alpha.csv", CSVAblation(a1))

	a2, err := AblationWindow(nil, volume, seed)
	must(err)
	section("a2", RenderAblation("Ablation A2: decision window t (Fig 6 workload)", a2))
	section("ablation_a2_window.csv", CSVAblation(a2))

	a3, err := AblationBackoff(volume, seed)
	must(err)
	section("a3", RenderAblation("Ablation A3: exponential backoff (HIGH, no load)", a3))
	section("ablation_a3_backoff.csv", CSVAblation(a3))

	a4, err := AblationBaselines(volume, seed)
	must(err)
	section("a4", RenderBaselines(a4))
	section("ablation_a4_baselines.csv", CSVBaselines(a4))

	a5, err := FileChannel(volume, seed)
	must(err)
	section("a5", RenderFileChannel(a5))
	section("ablation_a5_filechannel.csv", CSVFileChannel(a5))

	claims, err := VerifyClaims(volume, seed)
	must(err)
	section("claims", RenderClaims(claims))

	got := []byte(sb.String())
	if *update {
		must(os.MkdirAll("testdata", 0o755))
		must(os.WriteFile(path, got, 0o644))
		return
	}
	want, err := os.ReadFile(path)
	must(err)
	if !bytes.Equal(got, want) {
		t.Fatalf("the harness output no longer matches %s: rerun with -update and read `git diff`; commit it only if the change is meant", path)
	}
}
