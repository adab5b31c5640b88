package core_test

import (
	"fmt"
	"math"
	"testing"

	"adaptio/internal/coord"
	"adaptio/internal/core"
	"adaptio/internal/xrand"
)

const propLevels = 4

// propPolicies is everything that can sit behind the policy seam: the
// registry policies, the never-probe sentinel, a static level, and a
// coordinated stream both attached and detached (its Algorithm 1 fallback).
func propPolicies() map[string]func(seed uint64) core.Policy {
	table := map[string]func(seed uint64) core.Policy{
		core.PolicyCheatStick: func(seed uint64) core.Policy {
			return core.MustNewPolicy(core.PolicyCheatStick, core.Config{Levels: propLevels, Seed: seed})
		},
		"static": func(uint64) core.Policy { return core.Static(2) },
		"coord-attached": func(uint64) core.Policy {
			c := coord.MustNew(coord.Config{Levels: propLevels, BudgetBytesPerSec: 50e6})
			c.Register(coord.StreamConfig{}) // a neighbour, so the share is contended
			return c.Register(coord.StreamConfig{Weight: 2})
		},
		"coord-detached": func(uint64) core.Policy {
			c := coord.MustNew(coord.Config{Levels: propLevels})
			s := c.Register(coord.StreamConfig{})
			s.Detach()
			return s
		},
	}
	for _, name := range core.PolicyNames() {
		table[name] = func(seed uint64) core.Policy {
			return core.MustNewPolicy(name, core.Config{Levels: propLevels, Seed: seed})
		}
	}
	return table
}

// Hostile observations: every rate and byte total a driver could conceivably
// report, including the ones it never should.
var (
	hostileRates = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1e6, 5e-324, 1e300}
	hostileBytes = [][2]int64{{0, 0}, {0, 1 << 20}, {1 << 20, 0}, {-1 << 20, 1 << 20}, {1 << 20, -1 << 20}, {1 << 10, 1 << 30}, {math.MaxInt64, math.MaxInt64}}
)

// propWindow is step's observation of a policy currently at level: a
// closed-loop rate on a link whose share steps 100 -> 10 -> 100 MB/s (the
// convergence suite's environment), with mild noise and a plausible achieved
// ratio — except that about one window in five is hostile instead.
func propWindow(rng *xrand.RNG, step, level int) core.Window {
	ratio := []float64{1.00, 0.50, 0.25, 0.125}
	comp := []float64{5000, 40, 30, 6}
	share := 100.0
	if step/80%2 == 1 {
		share = 10
	}
	rate := math.Min(share/ratio[level], comp[level]) * 1e6 * rng.NoiseFactor(0.02)
	app := int64(rate * 2)
	w := core.Window{Rate: rate, AppBytes: app, WireBytes: int64(float64(app) * (0.3 + 0.4*rng.Float64()))}
	if rng.Intn(5) == 0 {
		w.Rate = hostileRates[rng.Intn(len(hostileRates))]
	}
	if rng.Intn(5) == 0 {
		b := hostileBytes[rng.Intn(len(hostileBytes))]
		w.AppBytes, w.WireBytes = b[0], b[1]
	}
	return w
}

// TestPolicyDeterminism pins the contract of the policy seam, through the
// one dispatch every driver uses: whatever the windows contain, a policy
// answers within [0, levels) without being clamped; its PolicyStats counters
// only grow; and two instances with the same configuration, fed the same
// observations, agree step for step — including the stochastic bandit, whose
// exploration must come entirely from the seeded RNG.
func TestPolicyDeterminism(t *testing.T) {
	for name, mk := range propPolicies() {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 5; seed++ {
				a, b := mk(seed), mk(seed)
				rng := xrand.New(seed)
				var prev core.PolicyStats
				for step := 0; step < 240; step++ {
					w := propWindow(rng, step, a.Level())
					la, err := core.ObserveWindow(a, propLevels, w)
					if err != nil {
						t.Fatalf("seed %d step %d window %+v: %v", seed, step, w, err)
					}
					lb, _ := core.ObserveWindow(b, propLevels, w)
					if la != lb || a.Level() != la || b.Level() != lb {
						t.Fatalf("seed %d step %d: instances disagree: returned %d vs %d, Level() %d vs %d",
							seed, step, la, lb, a.Level(), b.Level())
					}
					da, ok := a.(core.Decider)
					if !ok {
						continue
					}
					// Decisions carry the rates, NaN included: compare as printed.
					if x, y := fmt.Sprint(da.LastDecision()), fmt.Sprint(b.(core.Decider).LastDecision()); x != y {
						t.Fatalf("seed %d step %d: decisions differ: %s vs %s — policy is not deterministic", seed, step, x, y)
					}
					ps := da.PolicyStats()
					if ps.Probes < prev.Probes || ps.Reverts < prev.Reverts || ps.Rewards < prev.Rewards ||
						ps.WastedProbes < prev.WastedProbes || ps.Observed != prev.Observed+1 {
						t.Fatalf("seed %d step %d: PolicyStats went %+v -> %+v", seed, step, prev, ps)
					}
					prev = ps
				}
			}
		})
	}
}
