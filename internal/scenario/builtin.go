package scenario

import (
	"fmt"
	"sort"
	"time"

	"adaptio/internal/coord"
)

// secs builds a Duration from seconds for the built-in definitions.
func secs(s float64) Duration { return Duration(time.Duration(s * float64(time.Second))) }

// Builtins returns the built-in scenario catalog in catalog order, freshly
// constructed so callers can mutate their copy. Each one exists to pin a qualitative claim
// from the paper's world view under a workload class the paper never ran
// (the claims ride on each built-in; docs/scenarios.md has the catalog):
//
//	diurnal            sinusoidal request load over a heterogeneous fleet
//	heavytail          bursty, heavy-tailed compressibility mix
//	lossy              a WAN-ish link that degrades to 2% packet loss
//	flaps              a NIC whose capacity square-waves (tc-like flapping)
//	hetfleet           weighted tenants on skewed-CPU hosts
//	diurnal-lossy-1000 the nightly scale scenario: a 1000-VM fleet through
//	                   a simulated 3-hour diurnal cycle with an evening
//	                   loss episode, finishing in CI minutes
func Builtins() []*Scenario {
	return []*Scenario{
		{
			Name:          "diurnal",
			Description:   "48 request-driven VMs through two 30-min diurnal load cycles on a shared 400 MB/s NIC; adaptive compression must win the troughs (slow hosts cannot afford HEAVY) without flapping through the peaks.",
			Windows:       1800, // 1 h simulated at the paper's 2 s windows
			WindowSeconds: 2,
			NICMBps:       400,
			NICSigma:      0.05,
			CPUSigma:      0.02,
			Fleet: []Group{{
				Tenant: "web",
				Count:  48,
				CPU:    &Span{Min: 0.35, Max: 1.0},
			}},
			Demand: &Curve{
				Kind:      "diurnal",
				Value:     12,  // midline MB/s per stream
				Amplitude: 0.6, // trough 4.8, peak 19.2
				Period:    secs(1800),
				Phase:     0.75, // start at the trough
			},
			claims: []Claim{
				{
					Name:     "adaptive-beats-heavy-troughs",
					Desc:     "In demand troughs, the adaptive fleet's goodput strictly beats static-HEAVY: slow hosts cannot compress at HEAVY fast enough even for trough demand.",
					BrokenBy: []Rig{RigPinAdaptiveHeavy},
					check: func(sc *Scenario, r *Result) (bool, string) {
						idx := troughWindows(sc, r)
						ad, hv := sumAt(r.Variant("adaptive"), idx), sumAt(r.Variant("static-heavy"), idx)
						return ad > hv, fmt.Sprintf("trough windows %d: adaptive %d bytes vs static-heavy %d", len(idx), ad, hv)
					},
				},
				{
					Name:     "adaptive-flap-bound",
					Desc:     fmt.Sprintf("The adaptive fleet flaps at most %.0f times per stream-hour across the diurnal cycle.", diurnalFlapsPerStreamHour),
					BrokenBy: []Rig{RigOscillate},
					check: func(sc *Scenario, r *Result) (bool, string) {
						f := flapsPerStreamHour(r, r.Variant("adaptive"))
						return f <= diurnalFlapsPerStreamHour,
							fmt.Sprintf("adaptive flaps/stream-hour %.2f (bound %.0f)", f, diurnalFlapsPerStreamHour)
					},
				},
			},
		},
		{
			Name:          "heavytail",
			Description:   "64 VMs with a heavy-tailed compressibility mix (mostly fax-like HIGH with entropy outliers) and hash-scheduled demand bursts on the paper's 111 MB/s NIC; adaptive must track the best static choice.",
			Windows:       600, // 20 min simulated
			WindowSeconds: 2,
			NICMBps:       111,
			NICSigma:      0.05,
			CPUSigma:      0.03,
			MixChunkMB:    16,
			Fleet: []Group{{
				Tenant: "batch",
				Count:  64,
				CPU:    &Span{Min: 0.5, Max: 1.0},
				Mix:    "high=8,moderate=3,low=1",
			}},
			Demand: &Curve{
				Kind:  "burst",
				Value: 2,  // baseline MB/s per stream
				High:  30, // burst level
				Every: secs(120),
				Width: secs(20),
				Prob:  0.35,
			},
			claims: []Claim{
				{
					Name:     "adaptive-tracks-best-static",
					Desc:     fmt.Sprintf("On the bursty heavy-tail mix, adaptive goodput stays within %.0f%% of the best static level.", trackBestStaticFrac*100),
					BrokenBy: []Rig{RigPinAdaptiveNO},
					check: func(sc *Scenario, r *Result) (bool, string) {
						best, bestName := int64(0), ""
						for _, n := range []string{"static-no", "static-light", "static-medium", "static-heavy"} {
							if v := r.Variant(n); v != nil && v.AppBytes > best {
								best, bestName = v.AppBytes, n
							}
						}
						ad := r.Variant("adaptive").AppBytes
						return float64(ad) >= trackBestStaticFrac*float64(best),
							fmt.Sprintf("adaptive %d bytes vs best static %s %d (floor %.2f)", ad, bestName, best, trackBestStaticFrac)
					},
				},
				{
					Name: "compression-pays",
					Desc: fmt.Sprintf("The best compressed static level beats no-compression by at least %.0f%% (scenario sanity).", (compressionPayoffFrac-1)*100),
					check: func(sc *Scenario, r *Result) (bool, string) {
						best := int64(0)
						for _, n := range []string{"static-light", "static-medium", "static-heavy"} {
							if v := r.Variant(n); v != nil && v.AppBytes > best {
								best = v.AppBytes
							}
						}
						no := r.Variant("static-no").AppBytes
						return float64(best) >= compressionPayoffFrac*float64(no),
							fmt.Sprintf("best compressed %d bytes vs no-compression %d", best, no)
					},
				},
			},
		},
		{
			Name:          "lossy",
			Description:   "32 saturating senders on the paper's NIC; at t=120 s the shared link degrades to 2% packet loss at 15 ms RTT. Loss-limited TCP throughput is inversely proportional to effective RTT, and HEAVY's per-block compression latency dominates it, so LIGHT overtakes HEAVY.",
			Windows:       300, // 10 min simulated
			WindowSeconds: 2,
			NICMBps:       111,
			NICSigma:      0.03,
			CPUSigma:      0.02,
			Fleet: []Group{{
				Tenant: "replicas",
				// Healthy hosts: with full-speed CPUs, HEAVY's ratio
				// advantage wins the quiet contended NIC, which is what
				// makes the loss-induced LIGHT overtake a real crossover.
				Count: 32,
				CPU:   &Span{Min: 0.9, Max: 1.1},
			}},
			Link: &Link{
				Loss:  &Curve{Kind: "step", Value: 0, To: 0.02, At: secs(120)},
				RTTms: &Curve{Kind: "constant", Value: 15},
			},
			claims: []Claim{
				{
					Name:     "light-overtakes-heavy-under-loss",
					Desc:     "After the link degrades to 2% loss, static-LIGHT's goodput overtakes static-HEAVY: loss-limited TCP throughput is inversely proportional to effective RTT, and HEAVY's per-block compression latency dominates it.",
					BrokenBy: []Rig{RigNoLoss},
					check: func(sc *Scenario, r *Result) (bool, string) {
						onset := lossOnsetWindow(sc, r)
						if onset < 0 {
							// The rigged (no-loss) run must fail here, not pass
							// vacuously: with a quiet link HEAVY stays ahead.
							onset = 0
						}
						from := onset + lossSettleWindows
						lt := sumRange(r.Variant("static-light"), from, r.Windows)
						hv := sumRange(r.Variant("static-heavy"), from, r.Windows)
						return lt > hv, fmt.Sprintf("windows [%d,%d): static-light %d bytes vs static-heavy %d", from, r.Windows, lt, hv)
					},
				},
				{
					Name: "heavy-wins-quiet-link",
					Desc: "Before loss onset the ordering is reversed: on a quiet contended NIC, HEAVY's ratio advantage beats LIGHT (this is what makes the overtake a crossover, not a constant).",
					check: func(sc *Scenario, r *Result) (bool, string) {
						onset := lossOnsetWindow(sc, r)
						end := onset
						if onset < 0 {
							end = r.Windows
						}
						from := lossSettleWindows // skip decider warmup noise window 0
						hv := sumRange(r.Variant("static-heavy"), from, end)
						lt := sumRange(r.Variant("static-light"), from, end)
						return hv > lt, fmt.Sprintf("windows [%d,%d): static-heavy %d bytes vs static-light %d", from, end, hv, lt)
					},
				},
			},
		},
		{
			Name:          "flaps",
			Description:   "48 saturating senders on a NIC whose capacity square-waves between 100% and 35% every 80 s (a flapping uplink); solo deciders chase every edge while the coordinator's hysteresis dwell bounds per-stream switches.",
			Windows:       480, // 16 min simulated
			WindowSeconds: 2,
			NICMBps:       111,
			NICSigma:      0.04,
			CPUSigma:      0.02,
			Fleet: []Group{{
				Tenant: "sync",
				Count:  48,
				CPU:    &Span{Min: 0.4, Max: 1.0},
			}},
			Capacity: &Curve{Kind: "square", High: 1.0, Low: 0.35, Period: secs(80), Duty: 0.5},
			claims: []Claim{
				{
					Name:     "coord-dwell-bounds-switches",
					Desc:     "Hysteresis dwell is a hard rate limit: no coordinated stream can switch levels more than once per HysteresisWindows windows, whatever the NIC does.",
					BrokenBy: []Rig{RigOscillate},
					check: func(sc *Scenario, r *Result) (bool, string) {
						bound := r.Windows/coord.HysteresisWindows + 1
						got := r.Variant("coordinated").MaxStreamSwitches
						return got <= bound, fmt.Sprintf("coordinated max per-stream switches %d (dwell bound %d over %d windows)", got, bound, r.Windows)
					},
				},
				{
					Name:     "coordination-calms-flapping",
					Desc:     "Under bandwidth flaps the coordinated fleet flaps strictly less than the solo-decider fleet, which chases every capacity edge.",
					BrokenBy: []Rig{RigOscillate},
					check:    coordFlapsBelowSolo,
				},
			},
		},
		{
			Name:          "hetfleet",
			Description:   "A weighted two-tenant fleet on skewed-CPU hosts: 10 gold VMs at weight 3 against 50 silver VMs at weight 1, all saturating. Weighted fairness must hold end to end: gold per-stream goodput stays a multiple of silver's.",
			Windows:       240, // 8 min simulated
			WindowSeconds: 2,
			NICMBps:       111,
			NICSigma:      0.05,
			CPUSigma:      0.03,
			Fleet: []Group{
				{
					Tenant: "gold",
					Count:  10,
					Weight: 3,
					CPU:    &Span{Min: 0.9, Max: 1.1},
				},
				{
					Tenant: "silver",
					Count:  50,
					Weight: 1,
					CPU:    &Span{Min: 0.3, Max: 1.0},
				},
			},
			claims: []Claim{
				{
					Name:     "weighted-fairness-holds",
					Desc:     fmt.Sprintf("Gold streams (weight 3) sustain at least %.1fx the per-stream goodput of silver streams in the coordinated fleet.", hetFairnessFloor),
					BrokenBy: []Rig{RigFlatWeights},
					check: func(sc *Scenario, r *Result) (bool, string) {
						return tenantRatioAtLeast(r.Variant("coordinated"), "gold", "silver", hetFairnessFloor)
					},
				},
				{
					Name:     "nic-fairness-static",
					Desc:     fmt.Sprintf("The weighted NIC alone (static-LIGHT fleet, no coordinator) already yields gold at least %.1fx silver per stream: fairness is a link property, not a policy artifact.", hetFairnessFloor),
					BrokenBy: []Rig{RigFlatWeights},
					check: func(sc *Scenario, r *Result) (bool, string) {
						return tenantRatioAtLeast(r.Variant("static-light"), "gold", "silver", hetFairnessFloor)
					},
				},
				{
					Name:     "coordinated-beats-solo-goodput",
					Desc:     "On the saturated shared NIC the coordinated fleet's aggregate goodput strictly beats the solo-decider fleet's: one budgeted assignment wastes less of the link than every stream probing on its own.",
					BrokenBy: []Rig{RigOscillate},
					check: func(sc *Scenario, r *Result) (bool, string) {
						co, ad := r.Variant("coordinated").AppBytes, r.Variant("adaptive").AppBytes
						return co > ad, fmt.Sprintf("coordinated %d bytes vs solo %d", co, ad)
					},
				},
				{
					Name:     "coordinated-flaps-below-solo",
					Desc:     "On a steady NIC the coordinated fleet flaps strictly less than the solo-decider fleet, whose streams mistake each other's probes for bandwidth changes.",
					BrokenBy: []Rig{RigOscillate},
					check:    coordFlapsBelowSolo,
				},
			},
		},
		{
			Name:          "diurnal-lossy-1000",
			Description:   "The nightly scale gate: 1000 VMs in four tenant tiers through a 3-hour diurnal cycle on a 2 GB/s aggregation link, with an evening episode of 1% packet loss. Must finish orders of magnitude faster than real time.",
			Windows:       5400, // 3 h simulated
			WindowSeconds: 2,
			NICMBps:       2000,
			NICSigma:      0.05,
			CPUSigma:      0.03,
			Fleet: []Group{
				{Tenant: "gold", Count: 100, Weight: 2, CPU: &Span{Min: 0.8, Max: 1.2}, Mix: "moderate=3,high=1"},
				{Tenant: "web", Count: 400, Weight: 1, CPU: &Span{Min: 0.35, Max: 1.0}},
				{Tenant: "batch", Count: 300, Weight: 1, CPU: &Span{Min: 0.5, Max: 1.0}, Mix: "high=4,moderate=2,low=1"},
				{Tenant: "logs", Count: 200, Weight: 1, CPU: &Span{Min: 0.4, Max: 0.9}, Mix: "moderate=4,low=1"},
			},
			Demand: &Curve{
				Kind:      "diurnal",
				Value:     6,
				Amplitude: 0.6, // trough 2.4, peak 9.6 MB/s per stream
				Period:    secs(10800),
				Phase:     0.75,
			},
			Link: &Link{
				// The "evening" loss episode: 1% loss for the middle hour.
				Loss: &Curve{Kind: "square", High: 0.01, Low: 0, Period: secs(10800), Duty: 0.34, Phase: 0.33},
				RTTms: &Curve{
					Kind: "constant", Value: 10,
				},
			},
			claims: []Claim{
				{
					Name: "adaptive-beats-heavy-at-scale",
					Desc: "Across the full 1000-VM diurnal cycle with the evening loss episode, the adaptive fleet's aggregate goodput strictly beats static-HEAVY.",
					check: func(sc *Scenario, r *Result) (bool, string) {
						ad, hv := r.Variant("adaptive").AppBytes, r.Variant("static-heavy").AppBytes
						return ad > hv, fmt.Sprintf("adaptive %d bytes vs static-heavy %d", ad, hv)
					},
				},
				{
					Name: "scale-flap-bound",
					Desc: fmt.Sprintf("The 1000-VM adaptive fleet flaps at most %.0f times per stream-hour.", scaleFlapsPerStreamHour),
					check: func(sc *Scenario, r *Result) (bool, string) {
						f := flapsPerStreamHour(r, r.Variant("adaptive"))
						return f <= scaleFlapsPerStreamHour,
							fmt.Sprintf("adaptive flaps/stream-hour %.2f (bound %.0f)", f, scaleFlapsPerStreamHour)
					},
				},
			},
		},
	}
}

// BuiltinNames returns the built-in scenario names, sorted.
func BuiltinNames() []string {
	bs := Builtins()
	names := make([]string, len(bs))
	for i, b := range bs {
		names[i] = b.Name
	}
	sort.Strings(names)
	return names
}

// Lookup returns a fresh copy of the named built-in, or nil.
func Lookup(name string) *Scenario {
	for _, b := range Builtins() {
		if b.Name == name {
			return b
		}
	}
	return nil
}
