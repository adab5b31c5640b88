package experiments

import (
	"fmt"
	"strings"

	"adaptio/internal/baseline"
	"adaptio/internal/cloudsim"
	"adaptio/internal/core"
	"adaptio/internal/corpus"
)

// AblationRow is one parameter setting's outcome on a fixed scenario.
type AblationRow struct {
	Label             string
	CompletionSeconds float64
	LevelSwitches     int
	MeanLevel         float64
}

// runAblation executes one transfer with the given scheme.
func runAblation(label string, scheme core.Policy, kind corpus.Kind, bg int, totalBytes int64, seed uint64) (AblationRow, error) {
	res, err := cloudsim.RunTransfer(cloudsim.TransferConfig{
		Platform:   cloudsim.KVMParavirt,
		Kind:       cloudsim.ConstantKind(kind),
		TotalBytes: totalBytes,
		Background: bg,
		Scheme:     scheme,
		Profiles:   cloudsim.ReferenceProfiles(),
		Seed:       seed,
	})
	if err != nil {
		return AblationRow{}, err
	}
	return AblationRow{
		Label:             label,
		CompletionSeconds: res.CompletionSeconds,
		LevelSwitches:     res.LevelSwitches,
		MeanLevel:         res.MeanLevel(),
	}, nil
}

// AblationAlpha sweeps the tolerance parameter α on the MODERATE/2-conns
// scenario (DESIGN.md A1): small α reacts to small gains but is noise-prone,
// large α goes blind to real level differences. The paper found 0.2
// reasonable.
func AblationAlpha(alphas []float64, totalBytes int64, seed uint64) ([]AblationRow, error) {
	if alphas == nil {
		alphas = []float64{0.05, 0.1, 0.2, 0.3, 0.5}
	}
	if totalBytes == 0 {
		totalBytes = FiftyGB
	}
	var rows []AblationRow
	for _, a := range alphas {
		dec := core.MustNewDecider(core.Config{Levels: levels, Alpha: a})
		row, err := runAblation(fmt.Sprintf("alpha=%.2f", a), dec, corpus.Moderate, 2, totalBytes, seed)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// AblationWindow sweeps the decision interval t (DESIGN.md A2) on the
// Figure 6 workload where responsiveness matters: data compressibility
// flips every 10 GB.
func AblationWindow(windows []float64, totalBytes int64, seed uint64) ([]AblationRow, error) {
	if windows == nil {
		windows = []float64{0.5, 1, 2, 4, 8}
	}
	if totalBytes == 0 {
		totalBytes = FiftyGB
	}
	phase := max(totalBytes/5, 1) // five compressibility phases, as in Figure 6
	var rows []AblationRow
	for _, w := range windows {
		res, err := cloudsim.RunTransfer(cloudsim.TransferConfig{
			Platform:      cloudsim.KVMParavirt,
			Kind:          cloudsim.AlternatingKinds(phase, corpus.High, corpus.Low),
			TotalBytes:    totalBytes,
			Background:    0,
			WindowSeconds: w,
			Scheme:        newScheme(Dynamic),
			Profiles:      cloudsim.ReferenceProfiles(),
			Seed:          seed,
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Label:             fmt.Sprintf("t=%.1fs", w),
			CompletionSeconds: res.CompletionSeconds,
			LevelSwitches:     res.LevelSwitches,
			MeanLevel:         res.MeanLevel(),
		})
	}
	return rows, nil
}

// AblationBackoff compares the full algorithm against backoff-disabled and
// backoff-capped variants (DESIGN.md A3) on the Figure 4 scenario, where
// backoff is what makes probing decay.
func AblationBackoff(totalBytes int64, seed uint64) ([]AblationRow, error) {
	if totalBytes == 0 {
		totalBytes = FiftyGB
	}
	variants := []struct {
		label string
		cfg   core.Config
	}{
		{"backoff=exponential (paper)", core.Config{Levels: levels}},
		{"backoff=disabled", core.Config{Levels: levels, DisableBackoff: true}},
		{"backoff=capped(4)", core.Config{Levels: levels, MaxBackoffExp: 4}},
	}
	var rows []AblationRow
	for _, v := range variants {
		row, err := runAblation(v.label, core.MustNewDecider(v.cfg), corpus.High, 0, totalBytes, seed)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// BaselineRow is one scheme's outcome on one scenario of the A4 ablation.
type BaselineRow struct {
	Scheme   string
	Scenario string
	Seconds  float64
}

// AblationBaselines runs the related-work decision models and the paper's
// DYNAMIC scheme on three scenarios chosen to expose metric-skew failures:
// incompressible data (trained models keep compressing), EC2's fluctuating
// bandwidth (sensor-driven models flap), and the paper's own HIGH/no-load
// case (everyone should find LIGHT).
func AblationBaselines(totalBytes int64, seed uint64) ([]BaselineRow, error) {
	if totalBytes == 0 {
		totalBytes = FiftyGB
	}
	type scenario struct {
		name     string
		platform cloudsim.Platform
		kind     corpus.Kind
		bg       int
	}
	scenarios := []scenario{
		{"HIGH/KVM/0conns", cloudsim.KVMParavirt, corpus.High, 0},
		{"LOW/KVM/0conns", cloudsim.KVMParavirt, corpus.Low, 0},
		{"HIGH/EC2/0conns", cloudsim.EC2, corpus.High, 0},
	}
	train := baseline.DefaultTraining()
	type namedScheme struct {
		name   string
		scheme core.Policy
	}
	mkSchemes := func() ([]namedScheme, error) {
		ks, err := baseline.NewKrintzSucu(train)
		if err != nil {
			return nil, err
		}
		jt, err := baseline.NewJeannot(train)
		if err != nil {
			return nil, err
		}
		wm, err := baseline.NewWiseman(levels)
		if err != nil {
			return nil, err
		}
		return []namedScheme{
			{"DYNAMIC (paper)", newScheme(Dynamic)},
			{"NCTCSys", baseline.NewNCTCSys(levels)},
			{"KrintzSucu", ks},
			{"Jeannot(AdOC)", jt},
			{"Wiseman", wm},
		}, nil
	}
	run := func(sc scenario, scheme core.Policy) (float64, error) {
		res, err := cloudsim.RunTransfer(cloudsim.TransferConfig{
			Platform:   sc.platform,
			Kind:       cloudsim.ConstantKind(sc.kind),
			TotalBytes: totalBytes,
			Background: sc.bg,
			Scheme:     scheme,
			Profiles:   cloudsim.ReferenceProfiles(),
			Seed:       seed,
		})
		return res.CompletionSeconds, err
	}
	var rows []BaselineRow
	for _, sc := range scenarios {
		schemes, err := mkSchemes()
		if err != nil {
			return nil, err
		}
		// Oracle: best static level for the scenario, found by sweep.
		bestSeconds := 0.0
		for lvl := 0; lvl < levels; lvl++ {
			s, err := run(sc, newScheme(lvl))
			if err != nil {
				return nil, err
			}
			if lvl == 0 || s < bestSeconds {
				bestSeconds = s
			}
		}
		rows = append(rows, BaselineRow{Scheme: "best-static-oracle", Scenario: sc.name, Seconds: bestSeconds})
		for _, ns := range schemes {
			s, err := run(sc, ns.scheme)
			if err != nil {
				return nil, err
			}
			rows = append(rows, BaselineRow{Scheme: ns.name, Scenario: sc.name, Seconds: s})
		}
	}
	return rows, nil
}

// RenderAblation formats ablation rows.
func RenderAblation(title string, rows []AblationRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "--- %s ---\n", title)
	fmt.Fprintf(&sb, "%-28s %12s %10s %10s\n", "variant", "completion/s", "switches", "mean lvl")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-28s %12.0f %10d %10.2f\n", r.Label, r.CompletionSeconds, r.LevelSwitches, r.MeanLevel)
	}
	return sb.String()
}

// RenderBaselines formats the A4 grid grouped by scenario.
func RenderBaselines(rows []BaselineRow) string {
	var sb strings.Builder
	sb.WriteString("--- Ablation A4: decision models under virtualized metrics ---\n")
	byScenario := map[string][]BaselineRow{}
	var order []string
	for _, r := range rows {
		if _, ok := byScenario[r.Scenario]; !ok {
			order = append(order, r.Scenario)
		}
		byScenario[r.Scenario] = append(byScenario[r.Scenario], r)
	}
	for _, sc := range order {
		fmt.Fprintf(&sb, "%s:\n", sc)
		for _, r := range byScenario[sc] {
			fmt.Fprintf(&sb, "  %-20s %8.0f s\n", r.Scheme, r.Seconds)
		}
	}
	return sb.String()
}
