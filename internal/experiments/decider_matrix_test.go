package experiments

import (
	"bytes"
	"flag"
	"os"
	"testing"

	"adaptio/internal/core"
)

var update = flag.Bool("update", false, "rewrite the golden files (BENCH_decider.json, testdata/harness.golden) with current output")

// The decider-matrix acceptance suite: every learned policy must beat the
// paper baseline on the two-axis bound (within-or-better completion time in
// every Table II cell AND strictly fewer wasted probes over the grid), and
// the CheatStick sentinel must fail it. These are the teeth of the policy
// registry — a policy change that games one axis at the other's expense
// fails here before any baseline is regenerated.
// TestDeciderMatrixGolden then pins the numbers themselves.

func ciMatrix(t *testing.T) DeciderMatrixResult {
	t.Helper()
	res, err := DeciderMatrix(2011)
	if err != nil {
		t.Fatalf("DeciderMatrix: %v", err)
	}
	return res
}

func TestDeciderMatrixTwoAxisBound(t *testing.T) {
	if testing.Short() {
		t.Skip("full policy matrix skipped under -short")
	}
	res := ciMatrix(t)
	for _, policy := range []string{core.PolicyBandit, core.PolicyEWMA} {
		for _, v := range res.CheckBound(policy, core.PolicyAlgorithmOne, DefaultThroughputTolerance) {
			t.Errorf("%s violates the %s axis: %s", v.Policy, v.Axis, v.Detail)
		}
	}
	// The bound must not be vacuous: the baseline has to actually waste
	// probes for "strictly lower" to mean anything.
	if _, wasted := res.Totals(core.PolicyAlgorithmOne); wasted == 0 {
		t.Fatal("AlgorithmOne wasted no probes across the whole grid — the probe-economy axis is vacuous")
	}
}

// TestCheatStickFailsMatrixBound proves the bound is genuinely two-axis: the
// never-probe sentinel trivially wins the probe-economy axis (zero waste)
// and must be caught by the throughput axis. If this test ever passes the
// sentinel, the throughput tolerance has gone soft and the wasted-probe
// numbers of the learned policies are no longer evidence of anything.
func TestCheatStickFailsMatrixBound(t *testing.T) {
	if testing.Short() {
		t.Skip("full policy matrix skipped under -short")
	}
	res := ciMatrix(t)
	violations := res.CheckBound(core.PolicyCheatStick, core.PolicyAlgorithmOne, DefaultThroughputTolerance)
	if len(violations) == 0 {
		t.Fatal("CheatStick passed the two-axis bound — the throughput axis has no teeth")
	}
	for _, v := range violations {
		if v.Axis != "throughput" {
			t.Errorf("CheatStick violated the %s axis (%s); the sentinel must win probe economy and lose throughput", v.Axis, v.Detail)
		}
	}
	// And the half-bound it is designed to exploit: zero wasted probes.
	if _, wasted := res.Totals(core.PolicyCheatStick); wasted != 0 {
		t.Errorf("CheatStick wasted %d probes; the sentinel must never probe", wasted)
	}
}

// TestDeciderMatrixGolden holds the committed BENCH_decider.json to the
// matrix it records (docs/deciders.md): the artifact is deterministic, so
// any difference is a behaviour change. A change that means to move the
// numbers reruns with -update and commits the diff.
func TestDeciderMatrixGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full policy matrix skipped under -short")
	}
	got, err := ciMatrix(t).BenchJSON()
	if err != nil {
		t.Fatal(err)
	}
	const path = "../../BENCH_decider.json"
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the decider matrix no longer matches %s: rerun with -update and read `git diff`; commit it only if the change is meant", path)
	}
}

// TestDeciderMatrixBenchFile pins the artifact's shape: one entry per cell
// plus a totals entry per policy, all under the "current" set.
func TestDeciderMatrixBenchFile(t *testing.T) {
	res := ciMatrix(t)
	f := res.benchFile()
	cells := len(res.Kinds) * len(res.Backgrounds)
	if got, want := len(f.Benchmarks), len(res.Schemes)*(cells+1); got != want {
		t.Fatalf("artifact has %d benchmarks, want %d", got, want)
	}
	totals := map[string]bool{}
	for _, policy := range res.Schemes {
		name := "Decider/" + policy + "/totals"
		totals[name] = true
		m, ok := f.Benchmarks[name]["current"]
		if !ok {
			t.Fatalf("artifact is missing the %s entry", name)
		}
		p, w := res.Totals(policy)
		if m.Probes != int64(p) || m.WastedProbes != int64(w) {
			t.Errorf("%s carries probes=%d wasted=%d, matrix says %d/%d", name, m.Probes, m.WastedProbes, p, w)
		}
	}
	for name, sets := range f.Benchmarks {
		if totals[name] {
			continue
		}
		if m := sets["current"]; m.MBPerS <= 0 {
			t.Errorf("cell %s has no throughput measurement: %+v", name, m)
		}
	}
}
