package baseline_test

import (
	"testing"

	"adaptio/internal/baseline"
	"adaptio/internal/cloudsim"
	"adaptio/internal/core"
	"adaptio/internal/corpus"
)

// Interface conformance: all baselines must drop into the transfer engine.
var (
	_ core.WindowPolicy = (*baseline.NCTCSys)(nil)
	_ core.WindowPolicy = (*baseline.KrintzSucu)(nil)
	_ core.WindowPolicy = (*baseline.Jeannot)(nil)
	_ core.Policy       = (*baseline.Wiseman)(nil)
)

// guest is a window whose only content is the given displayed metrics.
func guest(m core.GuestMetrics) core.Window {
	return core.Window{Guest: func() core.GuestMetrics { return m }}
}

func TestTrainingValidate(t *testing.T) {
	if err := baseline.DefaultTraining().Validate(); err != nil {
		t.Fatalf("default training invalid: %v", err)
	}
	bad := baseline.Training{CompMBps: []float64{1}, Ratio: []float64{1, 2}}
	if err := bad.Validate(); err == nil {
		t.Error("mismatched tables accepted")
	}
	bad2 := baseline.Training{CompMBps: []float64{0}, Ratio: []float64{1}}
	if err := bad2.Validate(); err == nil {
		t.Error("zero speed accepted")
	}
	if err := (baseline.Training{}).Validate(); err == nil {
		t.Error("empty training accepted")
	}
	if baseline.DefaultTraining().Levels() != 4 {
		t.Error("default training should cover 4 levels")
	}
}

func TestConstructorValidation(t *testing.T) {
	if _, err := baseline.NewKrintzSucu(baseline.Training{}); err == nil {
		t.Error("KrintzSucu accepted empty training")
	}
	if _, err := baseline.NewJeannot(baseline.Training{}); err == nil {
		t.Error("Jeannot accepted empty training")
	}
	if _, err := baseline.NewWiseman(0); err == nil {
		t.Error("Wiseman accepted zero levels")
	}
}

func TestNCTCSysThresholds(t *testing.T) {
	n := baseline.NewNCTCSys(4)
	cases := []struct {
		bw, idle float64
		want     int
	}{
		{bw: 88, idle: 90, want: 0}, // fast network: no compression
		{bw: 40, idle: 90, want: 1}, // below light threshold
		{bw: 10, idle: 90, want: 2}, // below medium threshold
		{bw: 1, idle: 90, want: 3},  // nearly dead network: heavy
		{bw: 10, idle: 10, want: 1}, // loaded server backs off one level
	}
	for _, c := range cases {
		if got := n.ObserveWindow(guest(core.GuestMetrics{DisplayedBandwidthMBps: c.bw, DisplayedIdlePct: c.idle})); got != c.want {
			t.Errorf("bw=%v idle=%v: level %d, want %d", c.bw, c.idle, got, c.want)
		}
	}
}

func TestNCTCSysNoMetricsNoMove(t *testing.T) {
	n := baseline.NewNCTCSys(4)
	if n.Observe(100) != 0 {
		t.Fatal("moved without metrics")
	}
}

func TestKrintzSucuPicksByTrainedModel(t *testing.T) {
	k, err := baseline.NewKrintzSucu(baseline.DefaultTraining())
	if err != nil {
		t.Fatal(err)
	}
	// Plenty of displayed idle, gigabit-class bandwidth: trained model
	// says LIGHT maximizes min(comp*idle, bw/ratio).
	if got := k.ObserveWindow(guest(core.GuestMetrics{DisplayedIdlePct: 90, DisplayedBandwidthMBps: 88})); got != 1 {
		t.Fatalf("unloaded gigabit: level %d, want 1 (LIGHT)", got)
	}
	// Starved network: heavy compression pays off in the trained model.
	if got := k.ObserveWindow(guest(core.GuestMetrics{DisplayedIdlePct: 90, DisplayedBandwidthMBps: 2})); got != 3 {
		t.Fatalf("starved network: level %d, want 3 (HEAVY)", got)
	}
	// Displayed CPU exhausted: compression appears unaffordable.
	if got := k.ObserveWindow(guest(core.GuestMetrics{DisplayedIdlePct: 1, DisplayedBandwidthMBps: 88})); got != 0 {
		t.Fatalf("no displayed idle: level %d, want 0", got)
	}
}

func TestJeannotFollowsQueueTrend(t *testing.T) {
	j, err := baseline.NewJeannot(baseline.DefaultTraining())
	if err != nil {
		t.Fatal(err)
	}
	// Compressor far outruns the network: queue grows, level rises.
	for i := 0; i < 3; i++ {
		j.ObserveWindow(guest(core.GuestMetrics{CompressorMBps: 500, NetDrainMBps: 10, WindowSeconds: 2}))
	}
	if j.Level() == 0 {
		t.Fatal("growing queue did not raise the level")
	}
	// Network far outruns the compressor: queue drains, level falls.
	for i := 0; i < 6; i++ {
		j.ObserveWindow(guest(core.GuestMetrics{CompressorMBps: 1, NetDrainMBps: 100, WindowSeconds: 2}))
	}
	if j.Level() != 0 {
		t.Fatalf("draining queue did not lower the level, at %d", j.Level())
	}
}

func TestWisemanSamplesThenLocks(t *testing.T) {
	w, err := baseline.NewWiseman(4)
	if err != nil {
		t.Fatal(err)
	}
	// Sampling sweep: levels 0,1,2,3 in turn; level 2 shows the best rate.
	rates := []float64{50, 80, 120, 20}
	for i := 0; i < 4; i++ {
		if got := w.Level(); got != i {
			t.Fatalf("sample %d runs at level %d", i, got)
		}
		w.Observe(rates[i])
	}
	if w.Level() != 2 {
		t.Fatalf("locked level %d, want 2", w.Level())
	}
	// Whatever happens later, the level never changes again (the staleness
	// the paper criticizes).
	for _, r := range []float64{1, 1000, 3} {
		if got := w.Observe(r); got != 2 {
			t.Fatalf("post-lock level %d", got)
		}
	}
}

// runScheme executes a scheme in the real transfer engine.
func runScheme(t *testing.T, s core.Policy, kind corpus.Kind, bg int) float64 {
	t.Helper()
	return runSchemeOn(t, cloudsim.KVMParavirt, s, kind, bg)
}

func runSchemeOn(t *testing.T, p cloudsim.Platform, s core.Policy, kind corpus.Kind, bg int) float64 {
	t.Helper()
	res, err := cloudsim.RunTransfer(cloudsim.TransferConfig{
		Platform:   p,
		Kind:       cloudsim.ConstantKind(kind),
		TotalBytes: 50e9,
		Background: bg,
		Scheme:     s,
		Profiles:   cloudsim.ReferenceProfiles(),
		Seed:       99,
	})
	if err != nil {
		t.Fatalf("RunTransfer: %v", err)
	}
	return res.CompletionSeconds
}

// TestBaselinesMisledOnIncompressibleData is one half of the A4 ablation:
// on LOW data the trained scheme keeps engaging compression (its model,
// fed by the inflated displayed-idle metric, says compression helps) and
// lands measurably above the optimal static NO level, while the rate-based
// DYNAMIC scheme stays within the paper's 22% bound.
func TestBaselinesMisledOnIncompressibleData(t *testing.T) {
	no := runScheme(t, core.Static(0), corpus.Low, 0)

	k, _ := baseline.NewKrintzSucu(baseline.DefaultTraining())
	ks := runScheme(t, k, corpus.Low, 0)

	dyn := runScheme(t, core.MustNewDecider(core.Config{Levels: 4}), corpus.Low, 0)

	if ks <= no*1.05 {
		t.Errorf("KrintzSucu on LOW (%.0f s) should be misled vs NO (%.0f s)", ks, no)
	}
	if dyn > no*1.22 {
		t.Errorf("DYNAMIC on LOW (%.0f s) should stay near NO (%.0f s)", dyn, no)
	}
}

// TestMetricSchemesFlapOnEC2 is the other half of A4: EC2's wildly
// fluctuating bandwidth probes (Section II-B) make the metric-driven
// trained scheme flap into expensive levels, while the rate-based scheme
// only reacts to sustained rate changes and finishes faster.
func TestMetricSchemesFlapOnEC2(t *testing.T) {
	k, _ := baseline.NewKrintzSucu(baseline.DefaultTraining())
	ks := runSchemeOn(t, cloudsim.EC2, k, corpus.High, 0)

	dyn := runSchemeOn(t, cloudsim.EC2, core.MustNewDecider(core.Config{Levels: 4}), corpus.High, 0)

	if dyn >= ks {
		t.Errorf("on EC2/HIGH, DYNAMIC (%.0f s) should beat the metric-driven baseline (%.0f s)", dyn, ks)
	}
}

// TestBaselinesRunEndToEnd smoke-tests every baseline inside the engine on
// every corpus kind: they must complete without error and choose only valid
// levels (the engine enforces the range).
func TestBaselinesRunEndToEnd(t *testing.T) {
	train := baseline.DefaultTraining()
	for _, kind := range corpus.Kinds() {
		schemes := map[string]core.Policy{}
		schemes["nctcsys"] = baseline.NewNCTCSys(4)
		k, _ := baseline.NewKrintzSucu(train)
		schemes["krintz"] = k
		j, _ := baseline.NewJeannot(train)
		schemes["jeannot"] = j
		w, _ := baseline.NewWiseman(4)
		schemes["wiseman"] = w
		for name, s := range schemes {
			if ct := runScheme(t, s, kind, 1); ct <= 0 {
				t.Errorf("%s on %v: non-positive completion time", name, kind)
			}
		}
	}
}
