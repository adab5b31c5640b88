package scenario

import "fmt"

// A Claim is a deterministic shape assertion over a scenario's Result: the
// piece that turns a built-in scenario from a demo into a regression gate.
// Claims compare variants against each other (adaptive vs static ladders,
// coordinated vs solo) rather than against absolute numbers, so they encode
// the paper's qualitative physics, not simulator constants. Each scenario's
// headline claims name the Rigs that must break them (BrokenBy, collected by
// RigTargets), and the shape-test suite proves every rig actually flips
// exactly the claims it targets — a claim matrix no rig can break would be
// vacuous.
type Claim struct {
	// Name identifies the claim in artifacts and test output.
	Name string
	// Desc is the one-line statement of the property.
	Desc string
	// BrokenBy lists the rigs under which the claim must fail.
	BrokenBy []Rig
	// check returns pass/fail plus a diagnostic detail line.
	check func(sc *Scenario, r *Result) (bool, string)
}

// evaluate runs the claim and renders its ClaimResult.
func (c Claim) evaluate(sc *Scenario, r *Result) ClaimResult {
	pass, detail := c.check(sc, r)
	return ClaimResult{Name: c.Name, Pass: pass, Detail: detail}
}

// Claim calibration constants. Margins are deliberately loose against seed
// noise (every claim must hold for any reasonable seed) while tight enough
// that the paired rig breaks them decisively; see docs/scenarios.md for the
// calibration table.
const (
	// troughBand selects "trough" windows: demand within the lowest
	// troughBand fraction of the curve's [min, max] span.
	troughBand = 0.25
	// diurnalFlapsPerStreamHour bounds the adaptive fleet's flap rate
	// under diurnal load, per stream per simulated hour (measured ~53 at
	// the pinned seed; an oscillating policy lands near 1790).
	diurnalFlapsPerStreamHour = 80.0
	// trackBestStaticFrac is how close adaptive must stay to the best
	// static level's goodput on the bursty heavy-tail mix (measured 0.89
	// at the pinned seed; pinned-NO lands near 0.53).
	trackBestStaticFrac = 0.85
	// compressionPayoffFrac is how much the best compressed static level
	// must beat no-compression by on the heavy-tail mix (scenario sanity:
	// if compression stopped paying, the tracking claim would be hollow).
	compressionPayoffFrac = 1.20
	// lossSettleWindows skips the windows right after a loss transition
	// before summing goodput, so claims compare steady states.
	lossSettleWindows = 10
	// hetFairnessFloor is the minimum gold:silver per-stream goodput
	// ratio the weighted fleet must maintain (configured weight is 3x).
	hetFairnessFloor = 1.5
	// scaleFlapsPerStreamHour bounds the 1000-VM fleet's adaptive flap
	// rate, per stream per simulated hour (measured ~125 at the pinned
	// seed — mutual contention noise scales with fleet size — while an
	// oscillating policy lands near 1790).
	scaleFlapsPerStreamHour = 200.0
)

// sumRange sums v.WindowAppBytes over window indices [from, to).
func sumRange(v *VariantResult, from, to int) int64 {
	if v == nil {
		return 0
	}
	if from < 0 {
		from = 0
	}
	if to > len(v.WindowAppBytes) {
		to = len(v.WindowAppBytes)
	}
	var s int64
	for i := from; i < to; i++ {
		s += v.WindowAppBytes[i]
	}
	return s
}

// sumAt sums v.WindowAppBytes at the given window indices.
func sumAt(v *VariantResult, idx []int) int64 {
	if v == nil {
		return 0
	}
	var s int64
	for _, i := range idx {
		if i >= 0 && i < len(v.WindowAppBytes) {
			s += v.WindowAppBytes[i]
		}
	}
	return s
}

// troughWindows returns the indices of windows whose scenario-level demand
// sits in the lowest troughBand fraction of the demand curve's span.
func troughWindows(sc *Scenario, r *Result) []int {
	if sc.Demand == nil {
		return nil
	}
	vals := make([]float64, r.Windows)
	lo, hi := 0.0, 0.0
	for w := 0; w < r.Windows; w++ {
		v := sc.Demand.eval(float64(w)*r.WindowSeconds, sc.Seed)
		vals[w] = v
		if w == 0 || v < lo {
			lo = v
		}
		if w == 0 || v > hi {
			hi = v
		}
	}
	if hi <= lo {
		return nil
	}
	thr := lo + troughBand*(hi-lo)
	var idx []int
	for w, v := range vals {
		if v <= thr {
			idx = append(idx, w)
		}
	}
	return idx
}

// flapsPerStreamHour normalizes a variant's fleet-wide flap count.
func flapsPerStreamHour(r *Result, v *VariantResult) float64 {
	if v == nil || r.Streams == 0 || r.SimulatedSeconds <= 0 {
		return 0
	}
	return float64(v.Flaps) / float64(r.Streams) / (r.SimulatedSeconds / 3600)
}

// lossOnsetWindow finds the first window at which the scenario's loss curve
// is positive (-1 if it never is).
func lossOnsetWindow(sc *Scenario, r *Result) int {
	if sc.Link == nil || sc.Link.Loss == nil {
		return -1
	}
	for w := 0; w < r.Windows; w++ {
		if sc.Link.Loss.eval(float64(w)*r.WindowSeconds, sc.Seed) > 0 {
			return w
		}
	}
	return -1
}

// coordFlapsBelowSolo checks the coordinated fleet flaps strictly less than
// the solo-decider (adaptive) fleet.
func coordFlapsBelowSolo(_ *Scenario, r *Result) (bool, string) {
	co, ad := r.Variant("coordinated").Flaps, r.Variant("adaptive").Flaps
	return co < ad, fmt.Sprintf("coordinated flaps %d vs solo %d", co, ad)
}

// tenantRatioAtLeast checks tenant a's per-stream goodput is at least k
// times tenant b's within the variant.
func tenantRatioAtLeast(v *VariantResult, a, b string, k float64) (bool, string) {
	if v == nil {
		return false, "variant missing"
	}
	var ta, tb *TenantTotal
	for i := range v.Tenants {
		switch v.Tenants[i].Tenant {
		case a:
			ta = &v.Tenants[i]
		case b:
			tb = &v.Tenants[i]
		}
	}
	if ta == nil || tb == nil || ta.Streams == 0 || tb.Streams == 0 {
		return false, fmt.Sprintf("tenants %s/%s missing from variant %s", a, b, v.Name)
	}
	pa := float64(ta.AppBytes) / float64(ta.Streams)
	pb := float64(tb.AppBytes) / float64(tb.Streams)
	ratio := 0.0
	if pb > 0 {
		ratio = pa / pb
	}
	return pb > 0 && pa >= k*pb,
		fmt.Sprintf("%s %.1f MB/stream vs %s %.1f MB/stream (ratio %.2f, floor %.1f)", a, pa/1e6, b, pb/1e6, ratio, k)
}

// RigTargets maps each rig to the built-in claims it is designed to break,
// as scenario-name → claim-names, collected from the catalog's BrokenBy
// lists. The shape-test suite walks this table: for every entry, running
// the scenario with the rig must fail exactly those claims' properties.
func RigTargets() map[Rig]map[string][]string {
	targets := map[Rig]map[string][]string{}
	for _, sc := range Builtins() {
		for _, c := range sc.claims {
			for _, rig := range c.BrokenBy {
				if targets[rig] == nil {
					targets[rig] = map[string][]string{}
				}
				targets[rig][sc.Name] = append(targets[rig][sc.Name], c.Name)
			}
		}
	}
	return targets
}
