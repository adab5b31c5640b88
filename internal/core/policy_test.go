package core_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"adaptio/internal/core"
	"adaptio/internal/xrand"
)

// TestPolicyFactoryNames: what deploys a policy accepts the selectable names
// (core.PolicyNames) and nothing else — not the CheatStick sentinel, which
// NewPolicy can construct but which would pin every stream at level 0, and
// not the empty name: a CLI that was given no -decider hands its substrate
// no factory at all.
func TestPolicyFactoryNames(t *testing.T) {
	const names = "[algone bandit ewma]"
	cases := map[string]string{ // name -> substring of the error, "" = accepted
		"":                    names,
		core.PolicyCheatStick: names,
		"nonsense":            names,
	}
	for _, name := range core.PolicyNames() {
		cases[name] = ""
	}
	for name, wantErr := range cases {
		t.Run("decider="+name, func(t *testing.T) {
			mk, err := core.PolicyFactory(name, core.Config{Levels: 4})
			if wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), wantErr) {
					t.Fatalf("PolicyFactory error = %v, want one containing %q", err, wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("PolicyFactory: %v", err)
			}
			if got := mk().(core.Decider).Name(); got != name {
				t.Fatalf("factory for %q built a %q policy", name, got)
			}
		})
	}
	// The configuration is judged once, by the factory, not by its calls.
	if _, err := core.PolicyFactory(core.PolicyBandit, core.Config{Levels: 4, Alpha: -1}); err == nil {
		t.Error("PolicyFactory accepted a negative alpha")
	}
}

// decisionTrace drives p through n windows of one seeded closed-loop
// environment (propWindow) and returns every decision as printed.
func decisionTrace(p core.Policy, n int) string {
	var b strings.Builder
	rng := xrand.New(7)
	for step := 0; step < n; step++ {
		core.ObserveWindow(p, propLevels, propWindow(rng, step, p.Level()))
		fmt.Fprintln(&b, p.(core.Decider).LastDecision())
	}
	return b.String()
}

// TestPolicyFactorySeedsPerFactoryInCallOrder pins what -decider-seed
// promises: the i-th policy of a factory is a function of the configuration
// and i alone. Two factories sharing a process — acload's entry and exit —
// therefore hand out identical sequences however their calls interleave,
// which a process-wide counter could not promise; and within one factory the
// stochastic bandit explores differently on every stream.
func TestPolicyFactorySeedsPerFactoryInCallOrder(t *testing.T) {
	cfg := core.Config{Levels: propLevels, Seed: 2011}
	const streams, windows = 4, 400
	for _, name := range core.PolicyNames() {
		a, _ := core.PolicyFactory(name, cfg)
		b, _ := core.PolicyFactory(name, cfg)
		var ta, tb [streams]string
		for i := 0; i < streams; i++ { // the two endpoints' connections arrive interleaved
			pa, pb := a(), b()
			ta[i], tb[i] = decisionTrace(pa, windows), decisionTrace(pb, windows)
			if ta[i] != tb[i] {
				t.Errorf("%s: policy %d of two identical factories decided differently", name, i)
			}
		}
		if name == core.PolicyBandit && ta[0] == ta[1] {
			t.Errorf("bandit: streams 0 and 1 of one factory made the same %d decisions: the seed is not per stream", windows)
		}
	}

	// Safe for concurrent calls: each call still takes exactly one index.
	mk, _ := core.PolicyFactory(core.PolicyBandit, cfg)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); mk() }()
	}
	wg.Wait()
	ref, _ := core.PolicyFactory(core.PolicyBandit, cfg)
	for i := 0; i < 8; i++ {
		ref()
	}
	if decisionTrace(mk(), windows) != decisionTrace(ref(), windows) {
		t.Error("after 8 concurrent calls the 9th policy is not the 9th of a serial factory")
	}
}
