package core_test

import (
	"flag"
	"fmt"
	"strings"
	"sync"
	"testing"

	"adaptio/internal/core"
	"adaptio/internal/xrand"
)

// TestPolicyFactoryNames: what deploys a policy accepts the registry names
// (core.PolicyNames) and the empty name, Algorithm 1 as in NewPolicy, and
// nothing else — not the decider matrix's never-probe "cheatstick" row,
// which is core.Static(0) and no registry policy.
func TestPolicyFactoryNames(t *testing.T) {
	const names = "[algone bandit ewma]"
	cases := map[string]string{ // name -> substring of the error, "" = accepted
		"":           "",
		"cheatstick": names,
		"nonsense":   names,
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
			want := name
			if want == "" {
				want = core.PolicyAlgorithmOne
			}
			if got, want := fmt.Sprintf("%T", mk()), fmt.Sprintf("%T", core.MustNewPolicy(want, core.Config{Levels: 4})); got != want {
				t.Fatalf("factory for %q built a %s, want a %s", name, got, want)
			}
		})
	}
	// The configuration is judged once, by the factory, not by its calls.
	if _, err := core.PolicyFactory(core.PolicyBandit, core.Config{Levels: 4, Alpha: -1}); err == nil {
		t.Error("PolicyFactory accepted a negative alpha")
	}
}

// TestPolicyFromFlags: the CLIs' -static, -decider, -alpha and -decider-seed
// become core.Static(N) for -static N, and otherwise the first policy of
// PolicyFactory at those flags. A -static off the ladder is refused, and so
// is any of the other three beside -static N.
func TestPolicyFromFlags(t *testing.T) {
	fromFlags := func(args string) (func() core.Policy, error) {
		fs := flag.NewFlagSet("cli", flag.ContinueOnError)
		static := fs.Int("static", core.Adaptive, "")
		alpha := fs.Float64("alpha", core.DefaultAlpha, "")
		decider := fs.String("decider", "", "")
		seed := fs.Uint64("decider-seed", 0, "")
		if err := fs.Parse(strings.Fields(args)); err != nil {
			t.Fatalf("%q: %v", args, err)
		}
		return core.PolicyFromFlags(fs, *static, *decider, core.Config{Levels: propLevels, Alpha: *alpha, Seed: *seed})
	}
	factory := func(name string, cfg core.Config) core.Policy {
		mk, err := core.PolicyFactory(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return mk()
	}
	accepted := map[string]core.Policy{
		"":                                factory("", core.Config{Levels: propLevels}),
		"-static -1 -alpha 0.3":           factory("", core.Config{Levels: propLevels, Alpha: 0.3}),
		"-alpha 0.05":                     factory("", core.Config{Levels: propLevels, Alpha: 0.05}),
		"-decider bandit -decider-seed 7": factory(core.PolicyBandit, core.Config{Levels: propLevels, Seed: 7}),
	}
	for n := range propLevels {
		accepted[fmt.Sprintf("-static %d", n)] = core.Static(n)
	}
	for args, want := range accepted {
		mk, err := fromFlags(args)
		if err != nil {
			t.Errorf("%q refused: %v", args, err)
			continue
		}
		got := mk()
		if _, ok := want.(core.Static); ok {
			if got != want {
				t.Errorf("%q built %#v, want %#v", args, got, want)
			}
		} else if _, ok := got.(core.Decider); !ok || decisionTrace(got, 200) != decisionTrace(want, 200) {
			t.Errorf("%q built a policy that decides differently from PolicyFactory's", args)
		}
	}
	for _, args := range []string{
		"-static 1 -alpha 0.3", "-static 0 -alpha 0.2", "-static 2 -decider bandit",
		"-static 3 -decider-seed 7", "-static 4", "-static -2",
		"-decider nonsense", "-decider cheatstick", "-alpha -1", "-alpha NaN",
	} {
		if _, err := fromFlags(args); err == nil {
			t.Errorf("%q accepted", args)
		}
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

// TestPolicyFactoryEmptyNameIsAlgorithmOne: a CLI given no -decider hands
// its substrate PolicyFactory("") at its -alpha, and every policy that
// factory makes decides exactly as NewDecider's Algorithm 1 does.
func TestPolicyFactoryEmptyNameIsAlgorithmOne(t *testing.T) {
	cfg := core.Config{Levels: propLevels, Alpha: 0.3}
	mk, err := core.PolicyFactory("", cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := decisionTrace(core.MustNewDecider(cfg), 400)
	for i := 0; i < 3; i++ {
		if decisionTrace(mk(), 400) != want {
			t.Errorf("policy %d of PolicyFactory(\"\") decided differently from NewDecider", i)
		}
	}
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
