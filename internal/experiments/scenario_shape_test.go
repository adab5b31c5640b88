package experiments_test

// Scenario shape suite: every built-in scenario of the DSL
// (internal/scenario) is a deterministic regression surface — its claims
// encode a qualitative property of the paper's physics under a workload
// class the paper never ran, and each claim is paired with a rig that must
// break it. This file is the tier-1 gate over that matrix:
//
//   - TestScenarioBuiltinClaimsPass: all claims hold on honest runs;
//   - TestScenarioRigMatrix: every rig breaks exactly the claims it
//     targets (scenario.RigTargets) — proving the claims are load-bearing
//     and the rigs stay sharp, the DisableRevert/CheatFreeze sentinel
//     pattern applied to whole scenarios.
//
// The 1000-VM nightly scenario is skipped under -short; everything else
// simulates minutes-to-hours of fleet time in tens of milliseconds.

import (
	"sort"
	"strings"
	"testing"

	"adaptio/internal/scenario"
)

func runBuiltin(t *testing.T, name string, rig scenario.Rig) *scenario.Result {
	t.Helper()
	sc := scenario.Lookup(name)
	if sc == nil {
		t.Fatalf("built-in %q missing", name)
	}
	res, err := scenario.Run(sc, rig)
	if err != nil {
		t.Fatalf("scenario %s (rig %q): %v", name, rig, err)
	}
	return res
}

func TestScenarioBuiltinClaimsPass(t *testing.T) {
	builtins := scenario.Builtins()
	if len(builtins) < 5 {
		t.Fatalf("catalog has %d built-ins, want >= 5", len(builtins))
	}
	for _, sc := range builtins {
		name := sc.Name
		t.Run(name, func(t *testing.T) {
			if testing.Short() && name == "diurnal-lossy-1000" {
				t.Skip("nightly-scale scenario skipped under -short")
			}
			res := runBuiltin(t, name, scenario.RigNone)
			if len(res.Claims) < 2 {
				t.Fatalf("built-in %s carries %d claims; every built-in needs at least 2", name, len(res.Claims))
			}
			for _, c := range res.Claims {
				if !c.Pass {
					t.Errorf("claim %s FAILED: %s", c.Name, c.Detail)
				} else {
					t.Logf("claim %s: %s", c.Name, c.Detail)
				}
			}
		})
	}
}

// TestScenarioRigMatrix walks the full rig catalog. For each (rig, scenario)
// pair the rig must flip its targeted claims to FAIL while leaving every
// other claim of that scenario passing — "exactly its targets" is the
// property that keeps both the claims and the rigs honest: a rig that
// breaks nothing is dead weight, and one that breaks untargeted claims
// means the claims are entangled with the wrong mechanism.
func TestScenarioRigMatrix(t *testing.T) {
	targetsByRig := scenario.RigTargets()
	if len(targetsByRig) == 0 {
		t.Fatal("RigTargets is empty")
	}
	for rig, scens := range targetsByRig {
		for name, targets := range scens {
			rig, name, targets := rig, name, targets
			t.Run(string(rig)+"/"+name, func(t *testing.T) {
				res := runBuiltin(t, name, rig)
				failed := map[string]string{}
				for _, c := range res.Claims {
					if !c.Pass {
						failed[c.Name] = c.Detail
					}
				}
				for _, want := range targets {
					if detail, ok := failed[want]; !ok {
						t.Errorf("rig %s did not break claim %s — the sentinel has gone soft", rig, want)
					} else {
						t.Logf("rig %s broke %s as designed: %s", rig, want, detail)
						delete(failed, want)
					}
				}
				for claim, detail := range failed {
					t.Errorf("rig %s broke untargeted claim %s: %s", rig, claim, detail)
				}
			})
		}
	}
}

// TestScenarioRigCoverage keeps the rigs spread over the catalog: the
// rigged scenario set must span most of it.
func TestScenarioRigCoverage(t *testing.T) {
	rigged := map[string]bool{}
	for _, scens := range scenario.RigTargets() {
		for name := range scens {
			rigged[name] = true
		}
	}
	var names []string
	for n := range rigged {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) < 4 {
		t.Errorf("only %d built-ins have rig coverage (%s); want >= 4",
			len(names), strings.Join(names, ", "))
	}
}
