package core

import (
	"testing"

	"adaptio/internal/xrand"
)

// Convergence property suite for the solo decider (satellite of the fleet
// coordinator PR): on a link whose fair share steps between regimes, a
// single paper decider must (a) settle on the goodput-optimal level and
// spend the bulk of every regime's steady state there, (b) re-converge
// after each step change, and (c) keep its excursions bounded — backoff
// must make probe/revert churn logarithmic, not linear, in time.
//
// The environment is chosen so adjacent levels differ by more than the
// alpha tolerance band in every regime; this is the regime where Algorithm
// 1 genuinely converges. (When neighbors sit inside the band the paper
// decider wanders by design — that failure mode is what internal/coord
// exists for, and what the contention suite in internal/coord measures.)
//
//	level:        0     1     2    3
//	ratio:        1.00  0.50  0.25 0.125
//	comp MB/s:    5000  40    30   6
//
//	share 100 MB/s -> achievable 100 / 40 / 30 / 6   (optimal: 0)
//	share  10 MB/s -> achievable  10 / 20 / 30 / 6   (optimal: 2)
type convergenceEnv struct {
	ratio []float64
	comp  []float64 // compressor-bound application rate cap, MB/s
}

func convEnv() convergenceEnv {
	return convergenceEnv{
		ratio: []float64{1.00, 0.50, 0.25, 0.125},
		comp:  []float64{5000, 40, 30, 6},
	}
}

// rate is the closed-loop achieved application rate at a level: the link
// share divided by the wire ratio, capped by compressor speed.
func (e convergenceEnv) rate(level int, shareMBps float64) float64 {
	r := shareMBps / e.ratio[level]
	if r > e.comp[level] {
		r = e.comp[level]
	}
	return r
}

// optimal is the argmax level for a share, ties to the lighter level.
func (e convergenceEnv) optimal(shareMBps float64) int {
	best, lvl := 0.0, 0
	for l := range e.ratio {
		if r := e.rate(l, shareMBps); r > best {
			best, lvl = r, l
		}
	}
	return lvl
}

// phase is one constant-share regime of the trace.
type phase struct {
	shareMBps float64
	windows   int
}

// runConvergence drives one decider through the phases, feeding it the
// closed-loop rate with mild multiplicative noise (sigma well inside the
// alpha band, as in the fleet simulator), and returns per-phase occupancy
// of the optimal level over each phase's second half plus the final level.
func runConvergence(t *testing.T, d Decider, phases []phase, seed uint64) (tailOcc []float64, final int) {
	t.Helper()
	env := convEnv()
	rng := xrand.New(seed)
	for _, ph := range phases {
		opt := env.optimal(ph.shareMBps)
		atOpt := 0
		for w := 0; w < ph.windows; w++ {
			r := env.rate(d.Level(), ph.shareMBps) * 1e6 * rng.NoiseFactor(0.02)
			d.Observe(r)
			if w >= ph.windows/2 && d.Level() == opt {
				atOpt++
			}
		}
		tail := ph.windows - ph.windows/2
		tailOcc = append(tailOcc, float64(atOpt)/float64(tail))
	}
	return tailOcc, d.Level()
}

func TestDeciderConvergesAcrossStepChanges(t *testing.T) {
	phases := []phase{
		{shareMBps: 100, windows: 100}, // optimal 0
		{shareMBps: 10, windows: 100},  // optimal 2
		{shareMBps: 100, windows: 100}, // optimal 0 again
	}
	env := convEnv()
	for seed := uint64(1); seed <= 20; seed++ {
		d := MustNewDecider(Config{Levels: 4})
		occ, final := runConvergence(t, d, phases, seed)
		for i, ph := range phases {
			// >= 70% of each regime's steady-state tail at the optimal
			// level: backoff-paced probes cost a bounded, shrinking
			// fraction of windows once the decider has settled.
			if occ[i] < 0.70 {
				t.Errorf("seed %d phase %d (share %.0f MB/s): optimal-level occupancy %.2f < 0.70",
					seed, i, ph.shareMBps, occ[i])
			}
		}
		if want := env.optimal(phases[len(phases)-1].shareMBps); final != want {
			t.Errorf("seed %d: final level %d, want optimal %d", seed, final, want)
		}
		ps := d.PolicyStats()
		probes, reverts, observed := ps.Probes, ps.Reverts, ps.Observed
		// Bounded churn: with exponential backoff, excursions are
		// logarithmic per regime. 300 observations across 3 regimes must
		// stay far below one probe every other window; linear probing
		// (broken backoff) would show ~100+.
		if probes > 60 {
			t.Errorf("seed %d: %d probes over %d windows — backoff is not pacing excursions", seed, probes, observed)
		}
		if reverts > probes {
			t.Errorf("seed %d: %d reverts exceed %d probes", seed, reverts, probes)
		}
	}
}

// TestPolicyConvergence extends the convergence property to every selectable
// policy: the learned policies keep Algorithm 1's skeleton, so they must keep
// its convergence guarantees — same step-change phases, same 20 seeds, same
// >= 70% tail-occupancy bar and probe ceiling. A learned policy that gated
// its way out of re-converging (or probed linearly) fails here before the
// experiments-layer matrix ever runs.
func TestPolicyConvergence(t *testing.T) {
	phases := []phase{
		{shareMBps: 100, windows: 100}, // optimal 0
		{shareMBps: 10, windows: 100},  // optimal 2
		{shareMBps: 100, windows: 100}, // optimal 0 again
	}
	env := convEnv()
	for _, policy := range PolicyNames() {
		t.Run(policy, func(t *testing.T) {
			for seed := uint64(1); seed <= 20; seed++ {
				d := MustNewPolicy(policy, Config{Levels: 4, Seed: seed})
				occ, final := runConvergence(t, d, phases, seed)
				for i, ph := range phases {
					if occ[i] < 0.70 {
						t.Errorf("seed %d phase %d (share %.0f MB/s): optimal-level occupancy %.2f < 0.70",
							seed, i, ph.shareMBps, occ[i])
					}
				}
				if want := env.optimal(phases[len(phases)-1].shareMBps); final != want {
					t.Errorf("seed %d: final level %d, want optimal %d", seed, final, want)
				}
				ps := d.PolicyStats()
				if ps.Probes > 60 {
					t.Errorf("seed %d: %d probes over %d windows — probe pacing broken", seed, ps.Probes, ps.Observed)
				}
				if ps.Reverts > ps.Probes {
					t.Errorf("seed %d: %d reverts exceed %d probes", seed, ps.Reverts, ps.Probes)
				}
			}
		})
	}
}

// TestDeciderConvergenceNeedsBackoff is this suite's sentinel, in the
// DisableRevert tradition of the shape-fidelity tests: with backoff
// disabled the same environment must show the linear probe churn the bound
// above rules out. If this ever fails, the churn bound has gone soft and
// TestDeciderConvergesAcrossStepChanges no longer proves backoff matters.
func TestDeciderConvergenceNeedsBackoff(t *testing.T) {
	phases := []phase{
		{shareMBps: 100, windows: 100},
		{shareMBps: 10, windows: 100},
		{shareMBps: 100, windows: 100},
	}
	d := MustNewDecider(Config{Levels: 4, DisableBackoff: true})
	runConvergence(t, d, phases, 1)
	if ps := d.PolicyStats(); ps.Probes <= 60 {
		t.Fatalf("backoff-free decider made only %d probes over %d windows — the churn bound in the convergence test has no teeth",
			ps.Probes, ps.Observed)
	}
}
