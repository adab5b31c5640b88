// Contention-regression suite: the test harness the fleet coordinator lands
// inside. 100+ concurrent streams share one simulated NIC
// (cloudsim.RunFleet), and the coordinated fleet must beat the same fleet
// running 100+ independent paper deciders on BOTH axes at once:
//
//   - strictly higher aggregate goodput (application bytes through the
//     contended link), and
//   - strictly lower flap rate (level-switch direction reversals, counted
//     by the harness — not by the policy under test).
//
// The two-axis bound is what makes the suite cheat-resistant: a policy can
// trivially zero the flap metric by never adapting, and can always buy
// goodput with unbounded oscillation; beating both at once requires actual
// coordination. TestContentionSentinelFreeze proves the bound has teeth by
// running exactly such a rigged policy (Config.CheatFreeze) and asserting
// the goodput criterion catches it — the DisableRevert sentinel pattern of
// internal/experiments/shape_test.go applied to the fleet layer.
package coord_test

import (
	"testing"

	"adaptio/internal/cloudsim"
	"adaptio/internal/coord"
	"adaptio/internal/core"
	"adaptio/internal/corpus"
	"adaptio/internal/obs"
)

// fleetSpec pins the contention scenario: a Native-platform host NIC
// (111 MB/s application-achievable, the paper's 1 Gbit/s link) shared by
// 110 streams — 100 best-effort ("silver", weight 1) and 10 priority
// ("gold", weight 2) — with heterogeneous per-stream CPU speed and a mix of
// corpus kinds, over 240 paper-default 2 s windows.
const (
	fleetNIC     = 111.0 // MB/s, netTable[Native]
	fleetSilver  = 100
	fleetGold    = 10
	fleetWindows = 240
	fleetWinSec  = 2.0
	goldWeight   = 2.0
)

// fleetStreams builds the stream set, calling mkScheme(i, weight, tenant)
// for each stream. Stream parameters are deterministic functions of the
// index so solo and coordinated runs face the identical environment.
func fleetStreams(mkScheme func(i int, weight float64, tenant string) core.Policy) []cloudsim.FleetStream {
	n := fleetSilver + fleetGold
	streams := make([]cloudsim.FleetStream, n)
	for i := 0; i < n; i++ {
		weight, tenant := 1.0, "silver"
		if i >= fleetSilver {
			weight, tenant = goldWeight, "gold"
		}
		// CPU speed skew: factors 0.35..1.00 across the fleet, so some
		// streams are compressor-bound and some NIC-bound — the mix that
		// makes water-fill redistribution couple the streams.
		cpu := 0.35 + 0.65*float64(i%13)/12
		kind := cloudsim.ConstantKind(corpus.Moderate)
		switch {
		case i%10 == 3:
			kind = cloudsim.ConstantKind(corpus.High)
		case i%10 == 7:
			// Compressibility shifts mid-run, staggered per stream.
			kind = cloudsim.AlternatingKinds(int64(200+5*i)*1e6, corpus.Moderate, corpus.Low)
		}
		streams[i] = cloudsim.FleetStream{
			Kind:      kind,
			Scheme:    mkScheme(i, weight, tenant),
			Weight:    weight,
			CPUFactor: cpu,
			Tenant:    tenant,
		}
	}
	return streams
}

func runFleet(t *testing.T, seed uint64, mkScheme func(i int, weight float64, tenant string) core.Policy) cloudsim.FleetResult {
	t.Helper()
	res, err := cloudsim.RunFleet(cloudsim.FleetConfig{
		NICMBps:       fleetNIC,
		Windows:       fleetWindows,
		WindowSeconds: fleetWinSec,
		Profiles:      cloudsim.ReferenceProfiles(),
		Streams:       fleetStreams(mkScheme),
		Seed:          seed,
		NICSigma:      0.08,
		CPUSigma:      0.03,
	})
	if err != nil {
		t.Fatalf("RunFleet: %v", err)
	}
	return res
}

func soloScheme(i int, _ float64, _ string) core.Policy {
	return core.MustNewDecider(core.Config{Levels: 4})
}

func newFleetCoordinator(scope *obs.Scope, cheat bool) *coord.Coordinator {
	return coord.MustNew(coord.Config{
		BudgetBytesPerSec: fleetNIC * 1e6,
		Levels:            4,
		Obs:               scope,
		CheatFreeze:       cheat,
	})
}

func TestContentionCoordinatedBeatsSolo(t *testing.T) {
	for _, seed := range []uint64{1, 0xBEEF, 20260807} {
		solo := runFleet(t, seed, soloScheme)

		reg := obs.NewRegistry()
		c := newFleetCoordinator(reg.Scope("coord"), false)
		var handles []*coord.Stream
		coordinated := runFleet(t, seed, func(i int, weight float64, tenant string) core.Policy {
			s := c.Register(coord.StreamConfig{Weight: weight, Tenant: tenant})
			handles = append(handles, s)
			return s
		})

		// The headline regression bound: strictly better on both axes.
		if coordinated.AppBytes <= solo.AppBytes {
			t.Errorf("seed %d: coordinated goodput %d <= solo %d",
				seed, coordinated.AppBytes, solo.AppBytes)
		}
		if coordinated.Flaps >= solo.Flaps {
			t.Errorf("seed %d: coordinated flaps %d >= solo %d",
				seed, coordinated.Flaps, solo.Flaps)
		}
		t.Logf("seed %d: goodput %.1f vs %.1f MB/s, flaps %d vs %d (coordinated vs solo)",
			seed,
			coordinated.GoodputMBps(fleetWinSec), solo.GoodputMBps(fleetWinSec),
			coordinated.Flaps, solo.Flaps)

		// Tenant priority: a gold stream's weighted-fair share is 2x a
		// silver stream's, which must show up as materially more goodput
		// per gold stream in the coordinated run.
		var goldBytes, silverBytes int64
		for _, ps := range coordinated.PerStream {
			if ps.Tenant == "gold" {
				goldBytes += ps.AppBytes
			} else {
				silverBytes += ps.AppBytes
			}
		}
		goldPer := float64(goldBytes) / fleetGold
		silverPer := float64(silverBytes) / fleetSilver
		if goldPer <= 1.2*silverPer {
			t.Errorf("seed %d: gold per-stream goodput %.0f not materially above silver %.0f",
				seed, goldPer, silverPer)
		}

		// Metrics cross-check: the obs counter must agree byte-for-byte
		// with the harness's own accounting (every window's appBytes went
		// through ObserveWindow), and the active gauge must return
		// to zero once every stream detaches.
		scope := reg.Scope("coord")
		if got := scope.Counter("goodput.bytes").Value(); got != coordinated.AppBytes {
			t.Errorf("seed %d: coord.goodput.bytes = %d, harness counted %d", seed, got, coordinated.AppBytes)
		}
		if got := scope.Gauge("streams.active").Value(); got != int64(len(handles)) {
			t.Errorf("seed %d: coord.streams.active = %d, want %d", seed, got, len(handles))
		}
		// The coordinator's own flap counter uses the same reversal
		// definition as the harness; it may only ever undercount relative
		// to the harness if a stream's returned level was clamped, never
		// overcount.
		if got := scope.Counter("level.flaps").Value(); got > int64(coordinated.Flaps) {
			t.Errorf("seed %d: coord.level.flaps = %d exceeds harness count %d", seed, got, coordinated.Flaps)
		}
		for _, h := range handles {
			h.Detach()
		}
		if got := scope.Gauge("streams.active").Value(); got != 0 {
			t.Errorf("seed %d: coord.streams.active = %d after full detach, want 0", seed, got)
		}
	}
}

// TestContentionSentinelFreeze is the suite's cheat sentinel. CheatFreeze
// pins every stream at its initial level: zero switches, zero flaps — the
// flap criterion alone would crown it the perfect policy. The goodput
// criterion must catch it: a frozen fleet (everything at level 0, i.e. no
// compression on a contended NIC) cannot beat even the flapping solo fleet.
// If this test ever fails, the contention bounds have gone soft and a
// metric-gaming policy could pass TestContentionCoordinatedBeatsSolo.
func TestContentionSentinelFreeze(t *testing.T) {
	const seed = 1
	solo := runFleet(t, seed, soloScheme)

	c := newFleetCoordinator(nil, true)
	rigged := runFleet(t, seed, func(i int, weight float64, tenant string) core.Policy {
		return c.Register(coord.StreamConfig{Weight: weight, Tenant: tenant})
	})

	if rigged.Flaps != 0 || rigged.Switches != 0 {
		t.Fatalf("sentinel setup broken: frozen fleet recorded %d switches / %d flaps",
			rigged.Switches, rigged.Flaps)
	}
	// The teeth: the rigged policy "wins" the flap axis but must lose the
	// goodput axis, so the combined bound fails for it.
	if rigged.AppBytes > solo.AppBytes {
		t.Fatalf("cheat sentinel: frozen fleet goodput %d beat solo %d — the goodput bound no longer catches a flap-metric gamer",
			rigged.AppBytes, solo.AppBytes)
	}
}
