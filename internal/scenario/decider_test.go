package scenario

import (
	"errors"
	"testing"

	"adaptio/internal/core"
)

// The scenario half of the decider acceptance bound: across the six built-in
// scenarios, each learned policy must stay within-or-better on the adaptive
// variant's converged goodput per scenario AND waste strictly fewer probes
// than AlgorithmOne in aggregate — and keep every builtin's claims passing.
// (Per-scenario waste is allowed to tie: a single builtin can be a wash, the
// aggregate cannot.) The static-no variant, which never probes, proves the
// goodput axis bites.

// deciderGoodputTolerance is how far below AlgorithmOne's goodput a learned
// policy may land on any single builtin. Measured slack: the learned
// policies sit within 3% per scenario; 5% leaves room for curve retuning
// without admitting a policy that buys probe savings with throughput.
const deciderGoodputTolerance = 0.05

// runAdaptive runs one builtin under the given policy and returns the
// adaptive variant plus the overall claim outcome.
func runAdaptive(t *testing.T, name, policy string) (*VariantResult, bool) {
	t.Helper()
	sc := Lookup(name)
	if sc == nil {
		t.Fatalf("unknown builtin %q", name)
	}
	if policy != core.PolicyAlgorithmOne {
		sc.Decider = policy
	}
	res, err := Run(sc, RigNone)
	if err != nil {
		t.Fatalf("%s under %s: %v", name, policy, err)
	}
	v := res.Variant("adaptive")
	if v == nil {
		t.Fatalf("%s under %s: no adaptive variant", name, policy)
	}
	return v, res.ClaimsPass()
}

func builtinNames(t *testing.T) []string {
	var names []string
	for _, sc := range Builtins() {
		if testing.Short() && sc.Name == "diurnal-lossy-1000" {
			continue // nightly-scale scenario, skipped under -short
		}
		names = append(names, sc.Name)
	}
	return names
}

func TestBuiltinsDeciderBound(t *testing.T) {
	names := builtinNames(t)
	base := make(map[string]*VariantResult, len(names))
	baseWasted := 0
	for _, name := range names {
		v, _ := runAdaptive(t, name, core.PolicyAlgorithmOne)
		base[name] = v
		baseWasted += v.WastedProbes
	}
	if baseWasted == 0 {
		t.Fatal("AlgorithmOne wasted no probes across the builtins — the probe-economy axis is vacuous")
	}
	for _, policy := range core.PolicyNames() {
		if policy == core.PolicyAlgorithmOne {
			continue
		}
		t.Run(policy, func(t *testing.T) {
			wasted := 0
			for _, name := range names {
				v, claimsPass := runAdaptive(t, name, policy)
				if !claimsPass {
					t.Errorf("%s: builtin claims fail under %s", name, policy)
				}
				if floor := base[name].GoodputMBps * (1 - deciderGoodputTolerance); v.GoodputMBps < floor {
					t.Errorf("%s: goodput %.2f MB/s below %.2f (AlgorithmOne %.2f minus %.0f%%)",
						name, v.GoodputMBps, floor, base[name].GoodputMBps, deciderGoodputTolerance*100)
				}
				wasted += v.WastedProbes
			}
			if wasted >= baseWasted {
				t.Errorf("aggregate wasted probes %d not strictly below AlgorithmOne's %d", wasted, baseWasted)
			}
		})
	}
}

// TestSentinelFailsScenarioBound is the sentinel leg: a policy that never
// probes has perfect probe economy and must be rejected by the goodput axis.
// The static-no variant is that policy, so one hetfleet run — the cheapest
// builtin where every corpus kind rewards some compression — holds both
// sides of the comparison.
func TestSentinelFailsScenarioBound(t *testing.T) {
	res, err := Run(Lookup("hetfleet"), RigNone)
	if err != nil {
		t.Fatal(err)
	}
	base, static := res.Variant("adaptive"), res.Variant("static-no")
	if static.WastedProbes != 0 || static.Probes != 0 {
		t.Fatalf("static-no probed (%d probes, %d wasted); the sentinel must never probe",
			static.Probes, static.WastedProbes)
	}
	if base.Probes == 0 {
		t.Fatal("AlgorithmOne never probed on hetfleet: the sentinel is indistinguishable from it")
	}
	if floor := base.GoodputMBps * (1 - deciderGoodputTolerance); static.GoodputMBps >= floor {
		t.Fatalf("static-no goodput %.2f MB/s is within %.0f%% of AlgorithmOne's %.2f — the goodput axis has no teeth",
			static.GoodputMBps, deciderGoodputTolerance*100, base.GoodputMBps)
	}
}

// TestScenarioDeciderField pins the DSL wiring: an unknown policy is a typed
// validation error on the decider field, and a valid one lands in the
// artifact header.
func TestScenarioDeciderField(t *testing.T) {
	sc := Lookup("hetfleet")
	// "cheatstick" labels the decider matrix's never-probe row, which is
	// core.Static(0) and no registry policy.
	for _, name := range []string{"nonsense", "cheatstick"} {
		sc.Decider = name
		var fe *FieldError
		if err := sc.Validate(); !errors.As(err, &fe) || fe.Field != "decider" {
			t.Fatalf("decider %q: got %v, want a FieldError on decider", name, err)
		}
	}
	sc.Decider = core.PolicyEWMA
	sc.Windows = 40
	res, err := Run(sc, RigNone)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Decider != core.PolicyEWMA {
		t.Fatalf("result decider = %q, want %q", res.Decider, core.PolicyEWMA)
	}
}
