package experiments

import (
	"fmt"
	"math"
	"strings"

	"adaptio/internal/cloudsim"
	"adaptio/internal/core"
	"adaptio/internal/corpus"
)

// Claim is one quantitative statement from the paper checked against this
// reproduction.
type Claim struct {
	// ID is a short handle; Text quotes or paraphrases the paper.
	ID   string
	Text string
	// Paper is the paper's value (prose), Measured the reproduction's.
	Paper    string
	Measured string
	Pass     bool
}

// VerifyClaims runs the experiments behind the paper's headline quantitative
// claims and reports a pass/fail checklist. It is the one-shot answer to
// "does this reproduction actually reproduce the paper?" — cmd/expdriver
// prints it with -claims, and the test suite requires every claim to pass.
// It runs Figures 1–4, Figure 6 and Table II on the harness inputs exactly as
// their entries in Paper do, so every measured value is one the harness
// prints above the checklist.
func VerifyClaims(cfg TableIIConfig) ([]Claim, error) {
	var claims []Claim

	// --- Section II-A: CPU accounting gaps ---
	fig1, err := Fig1CPUAccuracy(cfg.Seed)
	if err != nil {
		return nil, err
	}
	worstGap, allUnderReport := 0.0, true
	for _, r := range fig1 {
		if g := r.GapFactor(); g > worstGap {
			worstGap = g
		}
		if r.HostVisible && r.Platform != cloudsim.Native && r.Guest.Total() >= r.Host.Total() {
			allUnderReport = false
		}
	}
	claims = append(claims, Claim{
		ID:       "S2A-gap",
		Text:     "displayed CPU utilization gap 'can grow up to a factor of 15' (XEN file read)",
		Paper:    "up to 15x",
		Measured: fmt.Sprintf("worst gap %.1fx", worstGap),
		Pass:     worstGap >= 8,
	}, Claim{
		ID:       "S2A-universal",
		Text:     "discrepancy 'can be found across all considered I/O operations and virtualization techniques'",
		Paper:    "all virtualized platform/op pairs under-report",
		Measured: fmt.Sprintf("under-reporting on all pairs: %v", allUnderReport),
		Pass:     allUnderReport,
	})

	// --- Section II-B: throughput fluctuation ---
	fig2, err := Fig2NetThroughput(cfg.TotalBytes, cfg.Seed)
	if err != nil {
		return nil, err
	}
	var covNative, covEC2, covKVM float64
	for _, r := range fig2 {
		cov := r.Summary.SD / math.Max(r.Summary.Mean, 1)
		switch r.Platform {
		case cloudsim.Native:
			covNative = cov
		case cloudsim.EC2:
			covEC2 = cov
		case cloudsim.KVMParavirt:
			covKVM = cov
		}
	}
	claims = append(claims, Claim{
		ID:       "S2B-ec2",
		Text:     "EC2 shows 'heavy throughput variations' vs marginal increase on the local cloud",
		Paper:    "EC2 >> local cloud >= native",
		Measured: fmt.Sprintf("CoV native %.3f, KVM %.3f, EC2 %.3f", covNative, covKVM, covEC2),
		Pass:     covEC2 > 5*covKVM && covKVM > covNative,
	})

	fig3, err := Fig3FileWriteThroughput(cfg.TotalBytes, cfg.Seed)
	if err != nil {
		return nil, err
	}
	var xen DistRow
	var kvmMean float64
	for _, r := range fig3 {
		if r.Platform == cloudsim.XenParavirt {
			xen = r
		}
		if r.Platform == cloudsim.KVMParavirt {
			kvmMean = r.Summary.Mean
		}
	}
	claims = append(claims, Claim{
		ID:       "S2B-xen-cache",
		Text:     "XEN file writes: rate 'occasionally appeared exceedingly high' then 'dropped to a few MB/s'; data remains in host memory",
		Paper:    "bimodal + spuriously high mean + GBs unflushed",
		Measured: fmt.Sprintf("max %.0f MB/s, min %.1f MB/s, mean %.0f vs KVM %.0f, %.1f GB cached", xen.Summary.Max, xen.Summary.Min, xen.Summary.Mean, kvmMean, float64(xen.CacheResidentBytes)/1e9),
		Pass:     xen.Summary.Max > 500 && xen.Summary.Min < 10 && xen.Summary.Mean > kvmMean && xen.CacheResidentBytes > 1<<30,
	})

	// --- Section IV / Table II ---
	table, err := TableII(cfg)
	if err != nil {
		return nil, err
	}
	worstDyn := 0.0
	for _, kind := range table.Kinds {
		for _, bg := range table.Backgrounds {
			if g := table.DynamicGap(kind, bg); g > worstDyn {
				worstDyn = g
			}
		}
	}
	claims = append(claims, Claim{
		ID:       "S4-22pct",
		Text:     "adaptive completion times 'at most 22% worse than the fastest ... statically set compression levels'",
		Paper:    "<= 22%",
		Measured: fmt.Sprintf("worst DYNAMIC gap %.0f%%", worstDyn*100),
		Pass:     worstDyn <= 0.22,
	})

	no := table.Cells[corpus.High][3][0].Mean
	dyn := table.Cells[corpus.High][3][Dynamic].Mean
	claims = append(claims, Claim{
		ID:       "S4-4x",
		Text:     "'improved the overall application throughput up to a factor of 4'",
		Paper:    ">= 4x vs no compression",
		Measured: fmt.Sprintf("%.1fx on HIGH data with 3 background connections", no/dyn),
		Pass:     no/dyn >= 4,
	})

	lightBest := true
	for _, bg := range table.Backgrounds {
		if table.Best(corpus.High, bg) != 1 {
			lightBest = false
		}
	}
	claims = append(claims, Claim{
		ID:       "S4-light-high",
		Text:     "LIGHT (QuickLZ fast) is the fastest static level on highly compressible data (Table II bold)",
		Paper:    "LIGHT fastest at every contention level",
		Measured: fmt.Sprintf("LIGHT fastest on HIGH at all contention levels: %v", lightBest),
		Pass:     lightBest,
	})

	// --- Figure 4: convergence and backoff decay ---
	fig4, err := Fig4Trace(cfg.TotalBytes, cfg.Seed)
	if err != nil {
		return nil, err
	}
	occ := fig4.LevelOccupancy()
	half := fig4.Duration() / 2
	firstHalf := fig4.SwitchesIn(0, half)
	secondHalf := fig4.SwitchesIn(half, fig4.Duration()+1)
	claims = append(claims, Claim{
		ID:       "F4-converge",
		Text:     "the algorithm 'can quickly determine ... LIGHT ... to result in the best overall application data rate'",
		Paper:    "locks onto LIGHT; probing decays exponentially",
		Measured: fmt.Sprintf("LIGHT occupancy %.0f%%, switches first/second half %d/%d", occ[1]*100, firstHalf, secondHalf),
		Pass:     occ[1] >= 0.7 && secondHalf <= firstHalf,
	})

	// --- Figure 6: compressibility switching ---
	fig6, err := Fig6Switch(cfg.TotalBytes, cfg.Seed)
	if err != nil {
		return nil, err
	}
	occ6 := fig6.LevelOccupancy()
	claims = append(claims, Claim{
		ID:       "F6-switch",
		Text:     "'our decision algorithm detected the changes in the data compressibility correctly and switched the compression level accordingly'",
		Paper:    "levels track HIGH/LOW phases",
		Measured: fmt.Sprintf("occupancy NO %.0f%% / LIGHT %.0f%%, %d switches across 5 phases", occ6[0]*100, occ6[1]*100, fig6.Switches()),
		Pass:     occ6[0] >= 0.15 && occ6[1] >= 0.2 && fig6.Switches() >= 4,
	})

	// --- No-training-phase design goal ---
	// Structural: the Decider needs no calibration inputs; we verify the
	// behavioural consequence — the very first windows already adapt
	// (first probe happens on observation one).
	firstSwitchTime := math.Inf(1)
	for _, w := range fig4 {
		if w.Level != 0 {
			firstSwitchTime = w.Time
			break
		}
	}
	claims = append(claims, Claim{
		ID:       "S3-no-training",
		Text:     "'without requiring any calibration or training phase' — adaptation starts immediately",
		Paper:    "no offline phase",
		Measured: fmt.Sprintf("first level engaged after %.0f s (first windows)", firstSwitchTime),
		Pass:     firstSwitchTime <= 3*core.DefaultWindowSeconds,
	})

	return claims, nil
}

// RenderClaims formats the checklist.
func RenderClaims(claims []Claim) string {
	var sb strings.Builder
	sb.WriteString("--- Paper claims checklist ---\n")
	pass := 0
	for _, c := range claims {
		mark := "FAIL"
		if c.Pass {
			mark = "PASS"
			pass++
		}
		fmt.Fprintf(&sb, "[%s] %-14s %s\n", mark, c.ID, c.Text)
		fmt.Fprintf(&sb, "       paper:    %s\n", c.Paper)
		fmt.Fprintf(&sb, "       measured: %s\n", c.Measured)
	}
	fmt.Fprintf(&sb, "%d/%d claims reproduced\n", pass, len(claims))
	return sb.String()
}

// AllPass reports whether every claim passed.
func AllPass(claims []Claim) bool {
	for _, c := range claims {
		if !c.Pass {
			return false
		}
	}
	return true
}
