package experiments_test

// Shape-fidelity suite: the paper's qualitative success criteria, encoded as
// deterministic seeded assertions against the simulator at small volume so
// they run on every `go test ./...`. These are tier-1 regression gates: any
// change to the decision model, the codec profiles, or the transfer model
// that breaks the *shape* of the paper's results (not just its absolute
// numbers) fails here.
//
// All transfers simulate 2 GB — far below the paper's 50 GB, but the
// simulator is a discrete-event model whose shape properties are volume
// independent (experiments_test.go exercises 10 GB, the root bench harness
// the full volume).

import (
	"testing"

	"adaptio/internal/cloudsim"
	"adaptio/internal/core"
	"adaptio/internal/corpus"
	"adaptio/internal/experiments"
)

const (
	shapeVolume int64  = 2e9
	shapeSeed   uint64 = 1
	shapeRuns          = 3
	// shapeGapBound is the suite's DYNAMIC-vs-best-static acceptance bound
	// on single cells: the paper's 22% plus a little room for the short
	// 2 GB transfers. The revert sentinel below proves the bound has
	// teeth: with the revert rule disabled the measured gap more than
	// doubles past it (>= 0.46 across seeds).
	shapeGapBound = 0.25
)

// meanStatic returns the mean completion time of a static-level transfer
// over shapeRuns seeded repetitions.
func meanStatic(t *testing.T, kind corpus.Kind, bg, level int) float64 {
	t.Helper()
	var sum float64
	for run := uint64(0); run < shapeRuns; run++ {
		r, err := cloudsim.RunTransfer(cloudsim.TransferConfig{
			Platform:   cloudsim.KVMParavirt, // the paper's evaluation platform
			Kind:       cloudsim.ConstantKind(kind),
			TotalBytes: shapeVolume,
			Background: bg,
			Scheme:     core.Static(level),
			Profiles:   cloudsim.ReferenceProfiles(),
			Seed:       shapeSeed ^ run<<16 ^ uint64(bg)<<8 ^ uint64(level)<<4,
		})
		if err != nil {
			t.Fatal(err)
		}
		sum += r.CompletionSeconds
	}
	return sum / shapeRuns
}

// meanDynamic is meanStatic for the adaptive decision model, with the
// revert-on-degradation rule optionally disabled (the sentinel's knob).
func meanDynamic(t *testing.T, kind corpus.Kind, bg int, disableRevert bool) float64 {
	t.Helper()
	var sum float64
	for run := uint64(0); run < shapeRuns; run++ {
		r, err := cloudsim.RunTransfer(cloudsim.TransferConfig{
			Platform:   cloudsim.KVMParavirt,
			Kind:       cloudsim.ConstantKind(kind),
			TotalBytes: shapeVolume,
			Background: bg,
			Scheme:     core.MustNewDecider(core.Config{Levels: 4, DisableRevert: disableRevert}),
			Profiles:   cloudsim.ReferenceProfiles(),
			Seed:       shapeSeed ^ run<<16 ^ uint64(bg)<<8,
		})
		if err != nil {
			t.Fatal(err)
		}
		sum += r.CompletionSeconds
	}
	return sum / shapeRuns
}

// TestShapeLightBeatsNoOnHigh: on highly compressible data even the
// lightest compression level must clearly beat raw transfer at every
// background load — Table II's HIGH column, where compression multiplies
// the effective 1 Gbit/s link.
func TestShapeLightBeatsNoOnHigh(t *testing.T) {
	for _, bg := range []int{0, 1, 2, 3} {
		no := meanStatic(t, corpus.High, bg, 0)
		light := meanStatic(t, corpus.High, bg, 1)
		if light >= no {
			t.Errorf("bg=%d: LIGHT %.1fs not faster than NO %.1fs on HIGH data", bg, light, no)
		}
		if bg == 0 && no/light < 1.5 {
			t.Errorf("bg=0: LIGHT only %.2fx faster than NO on HIGH data, want >= 1.5x", no/light)
		}
	}
}

// TestShapeNoTiesLightOnLow: on incompressible data NO and LIGHT must end
// up in the same ballpark — light compression wastes little enough CPU that
// neither choice is a disaster (Table II's "not compressible" column).
// Contrast with HIGH above, where they differ by multiples.
func TestShapeNoTiesLightOnLow(t *testing.T) {
	for _, bg := range []int{0, 1, 2, 3} {
		no := meanStatic(t, corpus.Low, bg, 0)
		light := meanStatic(t, corpus.Low, bg, 1)
		ratio := light / no
		if ratio < 1 {
			ratio = 1 / ratio
		}
		if ratio > 1.30 {
			t.Errorf("bg=%d: NO %.1fs vs LIGHT %.1fs differ by %.2fx on LOW data, want a near-tie (<= 1.30x)",
				bg, no, light, ratio)
		}
	}
}

// TestShapeHeavyLosesAtGigabit: at 1 Gbit/s the CPU cost of the heaviest
// level dominates everything — HEAVY must lose to both NO and LIGHT on
// every compressibility and background load, by a wide margin (the paper:
// "the heavy compression scheme is unable to provide any advantage").
func TestShapeHeavyLosesAtGigabit(t *testing.T) {
	for _, kind := range corpus.Kinds() {
		for _, bg := range []int{0, 1, 2, 3} {
			no := meanStatic(t, kind, bg, 0)
			light := meanStatic(t, kind, bg, 1)
			heavy := meanStatic(t, kind, bg, 3)
			best := no
			if light < best {
				best = light
			}
			if heavy <= no || heavy <= light {
				t.Errorf("%v bg=%d: HEAVY %.1fs does not lose (NO %.1fs, LIGHT %.1fs)", kind, bg, heavy, no, light)
			}
			if heavy < 2*best {
				t.Errorf("%v bg=%d: HEAVY %.1fs only %.1fx the best static %.1fs, want >= 2x",
					kind, bg, heavy, heavy/best, best)
			}
		}
	}
}

// TestShapeDynamicWithin22Pct: the paper's headline bound — DYNAMIC at most
// 22% worse than the best statically chosen level on every Table II cell.
// Cells where the measured gap exceeds the bound are accepted only when the
// gap is not statistically significant (Welch's t at 5%): the 2 GB
// transfers are short enough that single cells are run-to-run noisy, which
// is exactly the escape hatch VerifyClaims uses at full volume.
func TestShapeDynamicWithin22Pct(t *testing.T) {
	res, err := experiments.TableII(experiments.TableIIConfig{
		TotalBytes: shapeVolume,
		Runs:       shapeRuns,
		Seed:       shapeSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range res.Kinds {
		for _, bg := range res.Backgrounds {
			g := res.DynamicGap(kind, bg)
			if g > 0.22 && res.DynamicGapSignificant(kind, bg) {
				t.Errorf("%v bg=%d: DYNAMIC %.0f%% worse than best static (significant), paper bound is 22%%",
					kind, bg, g*100)
			}
		}
	}
}

// TestShapeGuestCPUUnderReporting: Section II's motivation — guest CPU
// metrics inside a VM wildly under-report the true cost of network sends.
// The headline gap lives on KVM with paravirtualized I/O (virtio queues
// hide the host's entire network stack from the guest; the accounting
// table encodes ~9.5x, the paper reports up to an order of magnitude);
// fully emulated KVM is the paper's documented small-discrepancy case and
// must still under-report, just not by multiples.
func TestShapeGuestCPUUnderReporting(t *testing.T) {
	rows, err := experiments.Fig1CPUAccuracy(shapeSeed)
	if err != nil {
		t.Fatal(err)
	}
	var sawParavirt, sawFull bool
	for _, r := range rows {
		if r.Op != cloudsim.NetSend {
			continue
		}
		switch r.Platform {
		case cloudsim.KVMParavirt:
			sawParavirt = true
			if gap := r.GapFactor(); gap < 5 {
				t.Errorf("KVM paravirt net-send: guest under-reports only %.1fx, want >= 5x", gap)
			}
		case cloudsim.KVMFull:
			sawFull = true
			if r.Guest.Total() >= r.Host.Total() {
				t.Errorf("KVM full net-send: guest %.0f%% >= host %.0f%%, guest must under-report",
					r.Guest.Total(), r.Host.Total())
			}
		}
	}
	if !sawParavirt || !sawFull {
		t.Fatal("Fig1 rows missing KVM net-send entries")
	}
}

// TestShapeSentinelRevertDisabled proves the suite genuinely depends on the
// paper's revert-on-degradation rule rather than on simulator accidents:
// with core.Config.DisableRevert the decider keeps drifting toward heavy
// levels on incompressible data (nothing undoes a bad probe), and the very
// bound the suite enforces for the real decider is violated by a wide
// margin. If a future change neuters the revert path, this test and
// TestShapeDynamicWithin22Pct fail together.
func TestShapeSentinelRevertDisabled(t *testing.T) {
	no := meanStatic(t, corpus.Low, 0, 0)
	light := meanStatic(t, corpus.Low, 0, 1)
	best := no
	if light < best {
		best = light
	}
	enabled := meanDynamic(t, corpus.Low, 0, false)
	disabled := meanDynamic(t, corpus.Low, 0, true)

	enabledGap := enabled/best - 1
	disabledGap := disabled/best - 1
	if enabledGap > shapeGapBound {
		t.Errorf("LOW bg=0: real decider %.0f%% over best static, want <= %.0f%%",
			enabledGap*100, shapeGapBound*100)
	}
	if disabledGap <= shapeGapBound {
		t.Errorf("LOW bg=0: revert-disabled decider only %.0f%% over best static — the shape bound no longer "+
			"detects a neutered revert rule (measured %.1fs vs enabled %.1fs)",
			disabledGap*100, disabled, enabled)
	}
	if disabled <= enabled {
		t.Errorf("disabling revert did not hurt: %.1fs vs %.1fs", disabled, enabled)
	}
}
