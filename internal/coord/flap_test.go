// Flapping-NIC contention case: the coordinator under a link whose capacity
// square-waves between 100% and 35% every 80 s (a flapping uplink, the
// tc-netem shape the scenario DSL's built-in "flaps" runs). The property
// under test is the hysteresis dwell rule as a hard rate limit: whatever the
// NIC does, no coordinated stream may switch levels more than once per
// HysteresisWindows windows — while the solo-decider fleet chases every
// capacity edge. TestFlapDwellSentinel proves the dwell bound is falsifiable
// by running a policy that flips levels every window.
package coord_test

import (
	"math"
	"testing"

	"adaptio/internal/cloudsim"
	"adaptio/internal/coord"
	"adaptio/internal/core"
	"adaptio/internal/corpus"
)

const (
	flapNIC       = 111.0
	flapStreamsN  = 48
	flapWindows   = 480
	flapWinSec    = 2.0
	flapPeriodSec = 80.0
	flapLowFrac   = 0.35
)

// flapEnv is the square-wave capacity: full for the first half of each
// period, flapLowFrac for the second.
func flapEnv() *cloudsim.FleetEnv {
	return &cloudsim.FleetEnv{
		Capacity: func(t float64) float64 {
			if math.Mod(t/flapPeriodSec, 1) < 0.5 {
				return 1.0
			}
			return flapLowFrac
		},
	}
}

func runFlapFleet(t *testing.T, seed uint64, mkScheme func(i int) core.Policy) cloudsim.FleetResult {
	t.Helper()
	streams := make([]cloudsim.FleetStream, flapStreamsN)
	for i := range streams {
		streams[i] = cloudsim.FleetStream{
			Kind:   cloudsim.ConstantKind(corpus.Moderate),
			Scheme: mkScheme(i),
			Weight: 1,
			// CPU skew 0.4..1.0 so the fleet holds both compressor-bound
			// and NIC-bound streams on either side of each flap edge.
			CPUFactor: 0.4 + 0.6*float64(i)/float64(flapStreamsN-1),
		}
	}
	res, err := cloudsim.RunFleet(cloudsim.FleetConfig{
		NICMBps:       flapNIC,
		Windows:       flapWindows,
		WindowSeconds: flapWinSec,
		Profiles:      cloudsim.ReferenceProfiles(),
		Streams:       streams,
		Seed:          seed,
		NICSigma:      0.04,
		CPUSigma:      0.02,
		Env:           flapEnv(),
	})
	if err != nil {
		t.Fatalf("RunFleet: %v", err)
	}
	return res
}

// flapDwellBound is the hard per-stream switch ceiling hysteresis implies
// over the horizon: one switch per HysteresisWindows-window dwell, plus one
// for the initial move.
func flapDwellBound() int {
	return flapWindows/coord.HysteresisWindows + 1
}

func TestFlapDwellBoundsSwitches(t *testing.T) {
	for _, seed := range []uint64{1, 2011} {
		c := coord.MustNew(coord.Config{
			BudgetBytesPerSec: flapNIC * 1e6,
			Levels:            4,
		})
		res := runFlapFleet(t, seed, func(int) core.Policy {
			return c.Register(coord.StreamConfig{})
		})
		bound := flapDwellBound()
		for i, ps := range res.PerStream {
			if ps.Switches > bound {
				t.Errorf("seed %d: stream %d switched %d times, dwell bound %d over %d windows",
					seed, i, ps.Switches, bound, flapWindows)
			}
		}
		t.Logf("seed %d: coordinated switches %d, flaps %d (bound %d/stream)",
			seed, res.Switches, res.Flaps, bound)
	}
}

// TestFlapCoordinationCalms pairs the dwell bound with the fleet-level
// claim: under the same flapping link, the coordinated fleet must flap
// strictly less than 48 independent paper deciders, each of which re-derives
// its level from whichever side of the square wave it last sampled.
func TestFlapCoordinationCalms(t *testing.T) {
	for _, seed := range []uint64{1, 2011} {
		solo := runFlapFleet(t, seed, func(int) core.Policy {
			return soloScheme(0, 1, "")
		})
		c := coord.MustNew(coord.Config{
			BudgetBytesPerSec: flapNIC * 1e6,
			Levels:            4,
		})
		coordinated := runFlapFleet(t, seed, func(int) core.Policy {
			return c.Register(coord.StreamConfig{})
		})
		if coordinated.Flaps >= solo.Flaps {
			t.Errorf("seed %d: coordinated flaps %d >= solo %d under a flapping NIC",
				seed, coordinated.Flaps, solo.Flaps)
		}
		t.Logf("seed %d: flaps %d vs %d (coordinated vs solo)", seed, coordinated.Flaps, solo.Flaps)
	}
}

// windowOscillator flips between levels 0 and 1 every observation — the
// worst-behaved policy the ladder admits.
type windowOscillator struct{ level int }

func (o *windowOscillator) Observe(float64) int { o.level ^= 1; return o.level }
func (o *windowOscillator) Level() int          { return o.level }

// TestFlapDwellSentinel proves the dwell bound can fail: a per-window
// oscillator must blow through it by an order of magnitude. If this test
// ever passes the bound, the bound has gone soft and
// TestFlapDwellBoundsSwitches no longer constrains anything.
func TestFlapDwellSentinel(t *testing.T) {
	res := runFlapFleet(t, 1, func(int) core.Policy { return &windowOscillator{} })
	bound := flapDwellBound()
	maxSwitches := 0
	for _, ps := range res.PerStream {
		if ps.Switches > maxSwitches {
			maxSwitches = ps.Switches
		}
	}
	if maxSwitches <= bound {
		t.Fatalf("oscillating policy stayed within the dwell bound (%d <= %d) — the bound is vacuous",
			maxSwitches, bound)
	}
}
