package experiments_test

import (
	"math"
	"strings"
	"testing"

	"adaptio/internal/cloudsim"
	"adaptio/internal/core"
	"adaptio/internal/corpus"
	"adaptio/internal/experiments"
	"adaptio/internal/stream"
)

// Most experiment tests run with reduced volumes: the experiments are
// deterministic simulations, so shape properties hold at 10 GB just as they
// do at the paper's 50 GB, and the full volume is exercised by the root
// bench harness.
const testVolume = 10e9

func TestFig1Rows(t *testing.T) {
	rows, err := experiments.Fig1CPUAccuracy(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4*5 {
		t.Fatalf("expected 20 rows, got %d", len(rows))
	}
	var xenFileReadGap float64
	for _, r := range rows {
		if r.Samples < 120 {
			t.Errorf("%v/%v: only %d samples (paper used >=120)", r.Platform, r.Op, r.Samples)
		}
		if r.Guest.Total() <= 0 {
			t.Errorf("%v/%v: zero guest utilization", r.Platform, r.Op)
		}
		if r.Platform == cloudsim.EC2 && r.HostVisible {
			t.Error("EC2 host should not be visible")
		}
		if r.Platform != cloudsim.EC2 && !r.HostVisible {
			t.Errorf("%v host should be visible", r.Platform)
		}
		if r.Platform == cloudsim.XenParavirt && r.Op == cloudsim.FileRead {
			xenFileReadGap = r.GapFactor()
		}
		// Virtualized platforms under-report (native is truthful).
		if r.HostVisible && r.Platform != cloudsim.Native && r.Guest.Total() >= r.Host.Total() {
			t.Errorf("%v/%v: guest %0.f%% >= host %0.f%%", r.Platform, r.Op, r.Guest.Total(), r.Host.Total())
		}
	}
	if xenFileReadGap < 8 {
		t.Errorf("XEN file-read gap %.1fx, paper reports up to 15x", xenFileReadGap)
	}
	out := experiments.RenderFig1(rows)
	for _, want := range []string{"Figure 1", "XEN", "Amazon EC2", "not observable", "STEAL"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig1 render missing %q", want)
		}
	}
}

func TestFig2Distribution(t *testing.T) {
	rows, err := experiments.Fig2NetThroughput(5e9, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("expected 5 platforms, got %d", len(rows))
	}
	var native, ec2 experiments.DistRow
	for _, r := range rows {
		switch r.Platform {
		case cloudsim.Native:
			native = r
		case cloudsim.EC2:
			ec2 = r
		}
		if r.Summary.N == 0 {
			t.Errorf("%v: no samples", r.Platform)
		}
	}
	// EC2's spread dwarfs the local cloud's (Figure 2's key message).
	if ec2.Summary.SD <= 5*native.Summary.SD {
		t.Errorf("EC2 SD %.1f not far above native %.1f", ec2.Summary.SD, native.Summary.SD)
	}
	out := experiments.RenderDist("Figure 2", "MBit/s", rows)
	if !strings.Contains(out, "MBit/s") || !strings.Contains(out, "Native") {
		t.Error("Fig2 render incomplete")
	}
}

func TestFig3Distribution(t *testing.T) {
	rows, err := experiments.Fig3FileWriteThroughput(testVolume, 1)
	if err != nil {
		t.Fatal(err)
	}
	var xen, kvm experiments.DistRow
	for _, r := range rows {
		switch r.Platform {
		case cloudsim.XenParavirt:
			xen = r
		case cloudsim.KVMParavirt:
			kvm = r
		}
	}
	if xen.Summary.Max < 10*kvm.Summary.Max {
		t.Errorf("XEN cache bursts (max %.0f) should dwarf KVM (max %.0f)", xen.Summary.Max, kvm.Summary.Max)
	}
	if xen.CacheResidentBytes == 0 {
		t.Error("XEN run should leave bytes in the host cache")
	}
	if kvm.CacheResidentBytes != 0 {
		t.Error("KVM run should not leave bytes in the host cache")
	}
	out := experiments.RenderDist("Figure 3", "MB/s", rows)
	if !strings.Contains(out, "host cache") {
		t.Error("Fig3 render missing cache note")
	}
}

func TestTableIISmall(t *testing.T) {
	res, err := experiments.TableII(experiments.TableIIConfig{
		TotalBytes: testVolume,
		Runs:       3,
		Seed:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Structural checks.
	if len(res.Kinds) != 3 || len(res.Backgrounds) != 4 {
		t.Fatalf("grid shape wrong: %v kinds, %v backgrounds", len(res.Kinds), len(res.Backgrounds))
	}
	for _, kind := range res.Kinds {
		for _, bg := range res.Backgrounds {
			cells := res.Cells[kind][bg]
			if len(cells) != 5 {
				t.Fatalf("%v/%d: %d cells", kind, bg, len(cells))
			}
			for si, c := range cells {
				if c.Mean <= 0 {
					t.Fatalf("%v/%d/%s: non-positive mean", kind, bg, experiments.SchemeNames[si])
				}
				if c.SD < 0 {
					t.Fatalf("%v/%d/%s: negative SD", kind, bg, experiments.SchemeNames[si])
				}
			}
		}
	}
	// The headline claims at reduced volume.
	for _, kind := range res.Kinds {
		for _, bg := range res.Backgrounds {
			if gap := res.DynamicGap(kind, bg); gap > 0.25 {
				t.Errorf("%v/bg=%d: dynamic gap %.0f%%", kind, bg, gap*100)
			}
		}
	}
	if res.Best(corpus.High, 0) != 1 {
		t.Errorf("HIGH/0: best scheme %s, want LIGHT", experiments.SchemeNames[res.Best(corpus.High, 0)])
	}
	if res.Best(corpus.Low, 0) != 0 {
		t.Errorf("LOW/0: best scheme %s, want NO", experiments.SchemeNames[res.Best(corpus.Low, 0)])
	}
	out := res.Render()
	for _, want := range []string{"Table II", "DYNAMIC", "HIGH", "MODERATE", "LOW", "dyn gap"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table II render missing %q", want)
		}
	}
}

// TestTableIIDeterministic: identical configuration yields bit-identical
// grids (the regression property the deterministic RNG exists for).
func TestTableIIDeterministic(t *testing.T) {
	cfg := experiments.TableIIConfig{TotalBytes: 2e9, Runs: 2, Seed: 5}
	a, err := experiments.TableII(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := experiments.TableII(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range a.Kinds {
		for _, bg := range a.Backgrounds {
			for si := range experiments.SchemeNames {
				if a.Cells[kind][bg][si] != b.Cells[kind][bg][si] {
					t.Fatalf("%v/%d/%s: %v vs %v", kind, bg, experiments.SchemeNames[si],
						a.Cells[kind][bg][si], b.Cells[kind][bg][si])
				}
			}
		}
	}
}

func TestFig4TraceProperties(t *testing.T) {
	tr, err := experiments.Fig4Trace(testVolume, 3)
	if err != nil {
		t.Fatal(err)
	}
	occ := tr.LevelOccupancy()
	if occ[1] < 0.6 {
		t.Errorf("Fig4: LIGHT occupancy %.0f%%, expected dominant", occ[1]*100)
	}
	// Probing decays: later half has no more switches than the first.
	half := tr.Duration() / 2
	first := tr.SwitchesIn(0, half)
	second := tr.SwitchesIn(half, tr.Duration()+1)
	if second > first {
		t.Errorf("Fig4: switches increased over time (%d -> %d)", first, second)
	}
	out := tr.Render("Fig 4", experiments.LevelNames, 80)
	if !strings.Contains(out, "LIGHT") {
		t.Error("Fig4 render incomplete")
	}
}

func TestFig5TraceProperties(t *testing.T) {
	tr, err := experiments.Fig5Trace(testVolume, 3)
	if err != nil {
		t.Fatal(err)
	}
	// On LOW data with contention the rates of NO, LIGHT and MEDIUM sit
	// inside the α band of one another (Table II: 1313/1440/1481 s), so
	// the algorithm keeps probing among them: Figure 5 shows sustained
	// switching rather than convergence.
	if tr.Switches() < 5 {
		t.Errorf("Fig5: only %d switches; paper shows continued probing", tr.Switches())
	}
	// What must never happen is settling on HEAVY: its rate degradation
	// is far outside α and is reverted within one window.
	occ := tr.LevelOccupancy()
	if occ[3] > 0.15 {
		t.Errorf("Fig5: HEAVY occupancy %.0f%%, should be rare", occ[3]*100)
	}
}

func TestFig6SwitchDetection(t *testing.T) {
	tr, err := experiments.Fig6Switch(experiments.FiftyGB, 3) // phases are 10 GB
	if err != nil {
		t.Fatal(err)
	}
	// During HIGH phases the scheme should sit at LIGHT; during LOW
	// phases at NO (mostly). Identify phase boundaries by time via the
	// recorded points' kinds... the trace doesn't carry kind, so check
	// occupancy: both NO and LIGHT see substantial time.
	occ := tr.LevelOccupancy()
	if occ[0] < 0.15 || occ[1] < 0.25 {
		t.Errorf("Fig6: occupancy NO=%.0f%% LIGHT=%.0f%%; expected both substantial", occ[0]*100, occ[1]*100)
	}
	if tr.Switches() < 4 {
		t.Errorf("Fig6: only %d switches across 5 compressibility phases", tr.Switches())
	}
}

func TestAblationAlpha(t *testing.T) {
	rows, err := experiments.AblationAlpha(testVolume, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("expected 5 alpha settings, got %d", len(rows))
	}
	for _, r := range rows {
		if r.CompletionSeconds <= 0 {
			t.Errorf("%s: non-positive completion", r.Label)
		}
	}
	// Small alpha probes more than large alpha.
	if rows[0].LevelSwitches < rows[len(rows)-1].LevelSwitches {
		t.Errorf("alpha=%s switches %d < alpha=%s switches %d; expected more probing at small alpha",
			rows[0].Label, rows[0].LevelSwitches, rows[len(rows)-1].Label, rows[len(rows)-1].LevelSwitches)
	}
	if out := experiments.RenderAblation("A1", rows); !strings.Contains(out, "alpha=0.20") {
		t.Error("A1 render incomplete")
	}
}

func TestAblationWindow(t *testing.T) {
	rows, err := experiments.AblationWindow(testVolume, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("expected 5 window settings, got %d", len(rows))
	}
	for _, r := range rows {
		if r.CompletionSeconds <= 0 || math.IsNaN(r.CompletionSeconds) {
			t.Errorf("%s: bad completion %v", r.Label, r.CompletionSeconds)
		}
	}
}

func TestAblationBackoff(t *testing.T) {
	rows, err := experiments.AblationBackoff(testVolume, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("expected 3 variants, got %d", len(rows))
	}
	var paper, disabled experiments.AblationRow
	for _, r := range rows {
		if strings.Contains(r.Label, "paper") {
			paper = r
		}
		if strings.Contains(r.Label, "disabled") {
			disabled = r
		}
	}
	// Without backoff, probing never decays: far more switches and a
	// slower run on the stable Figure 4 scenario.
	if disabled.LevelSwitches <= paper.LevelSwitches {
		t.Errorf("backoff off should switch more: %d vs %d", disabled.LevelSwitches, paper.LevelSwitches)
	}
	if disabled.CompletionSeconds <= paper.CompletionSeconds {
		t.Errorf("backoff off should be slower: %.0f vs %.0f s", disabled.CompletionSeconds, paper.CompletionSeconds)
	}
}

func TestAblationBaselines(t *testing.T) {
	rows, err := experiments.AblationBaselines(testVolume, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 3 scenarios x (oracle + 5 schemes).
	if len(rows) != 3*6 {
		t.Fatalf("expected 18 rows, got %d", len(rows))
	}
	get := func(scheme, scenario string) float64 {
		for _, r := range rows {
			if r.Scheme == scheme && r.Scenario == scenario {
				return r.Seconds
			}
		}
		t.Fatalf("row %s/%s missing", scheme, scenario)
		return 0
	}
	// DYNAMIC is near the oracle on the paper's own scenario.
	oracle := get("best-static-oracle", "HIGH/KVM/0conns")
	dyn := get("DYNAMIC (paper)", "HIGH/KVM/0conns")
	if dyn > oracle*1.25 {
		t.Errorf("DYNAMIC %.0f s too far above oracle %.0f s", dyn, oracle)
	}
	// On EC2 the metric-driven trained scheme loses to DYNAMIC.
	if get("DYNAMIC (paper)", "HIGH/EC2/0conns") >= get("KrintzSucu", "HIGH/EC2/0conns") {
		t.Error("DYNAMIC should beat KrintzSucu on EC2's fluctuating metrics")
	}
	if out := experiments.RenderBaselines(rows); !strings.Contains(out, "NCTCSys") {
		t.Error("A4 render incomplete")
	}
}

func TestCalibrate(t *testing.T) {
	ms, profiles, err := experiments.Calibrate(stream.DefaultLadder(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 4*3 {
		t.Fatalf("expected 12 measurements, got %d", len(ms))
	}
	if err := cloudsim.ValidateLadder(profiles); err != nil {
		t.Fatalf("calibrated ladder invalid: %v", err)
	}
	byLevel := map[string]map[corpus.Kind]experiments.CodecMeasurement{}
	for _, m := range ms {
		if byLevel[m.Level] == nil {
			byLevel[m.Level] = map[corpus.Kind]experiments.CodecMeasurement{}
		}
		byLevel[m.Level][m.Kind] = m
	}
	// Speed ordering on compressible data: NO > LIGHT > MEDIUM > HEAVY.
	for _, kind := range []corpus.Kind{corpus.High, corpus.Moderate} {
		no := byLevel["NO"][kind].CompMBps
		light := byLevel["LIGHT"][kind].CompMBps
		medium := byLevel["MEDIUM"][kind].CompMBps
		heavy := byLevel["HEAVY"][kind].CompMBps
		if !(no > light && light > medium && medium > heavy) {
			t.Errorf("%v: speed ordering violated: %.0f %.0f %.0f %.0f", kind, no, light, medium, heavy)
		}
		// Ratio ordering: heavier levels compress better.
		if !(byLevel["HEAVY"][kind].Ratio < byLevel["MEDIUM"][kind].Ratio &&
			byLevel["MEDIUM"][kind].Ratio < byLevel["LIGHT"][kind].Ratio) {
			t.Errorf("%v: ratio ordering violated", kind)
		}
	}
	// A calibrated Table II cell runs end to end.
	res, err := cloudsim.RunTransfer(cloudsim.TransferConfig{
		Platform:   cloudsim.KVMParavirt,
		Kind:       cloudsim.ConstantKind(corpus.High),
		TotalBytes: 1e9,
		Scheme:     core.Static(1),
		Profiles:   profiles,
		Seed:       1,
	})
	if err != nil || res.CompletionSeconds <= 0 {
		t.Fatalf("calibrated transfer failed: %v", err)
	}
	if out := experiments.RenderCalibration(ms); !strings.Contains(out, "LIGHT") {
		t.Error("calibration render incomplete")
	}
}
