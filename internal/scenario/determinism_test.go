package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden artifacts with current output")

func loadMini(t *testing.T) *Scenario {
	t.Helper()
	sc, err := Load("testdata/scenarios/mini.json")
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func artifact(t *testing.T, sc *Scenario) []byte {
	t.Helper()
	res, err := Run(sc, RigNone)
	if err != nil {
		t.Fatal(err)
	}
	data, err := res.MarshalArtifact()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRunDeterministicAcrossParallel is the artifact-stability property: the
// same scenario and seed must marshal to byte-identical JSON across repeated
// runs, with the variants' goroutines run one at a time (GOMAXPROCS 1) or
// side by side (4) — each variant is a self-contained simulation, so
// scheduling cannot leak into results. Without this, golden files and
// cross-commit artifact diffs would be meaningless.
func TestRunDeterministicAcrossParallel(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	base := artifact(t, loadMini(t))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for rep := 0; rep < 2; rep++ {
			got := artifact(t, loadMini(t))
			if !bytes.Equal(got, base) {
				t.Fatalf("artifact differs at GOMAXPROCS=%d rep=%d (%d vs %d bytes)",
					procs, rep, len(got), len(base))
			}
		}
	}

	// Sanity that the property test has teeth: a different seed must
	// actually change the bytes.
	reseeded := loadMini(t)
	reseeded.Seed = 8
	if bytes.Equal(artifact(t, reseeded), base) {
		t.Fatal("changing the seed did not change the artifact — determinism test is vacuous")
	}
}

// TestBuiltinDeterminism re-runs a built-in (with link perturbations and
// claims) and requires identical bytes, covering the claim-evaluation path
// the mini scenario's golden misses.
func TestBuiltinDeterminism(t *testing.T) {
	a := artifact(t, Lookup("lossy"))
	b := artifact(t, Lookup("lossy"))
	if !bytes.Equal(a, b) {
		t.Fatal("built-in lossy artifact differs between runs")
	}
}

// TestBuiltinArtifactDigests pins the artifacts of the five small built-ins,
// claims included, by sha256: `expdriver -scenario <name> -metrics-out`
// writes these same bytes. A change to the catalog, the DSL's compilation
// or the simulator that moves any of them shows up here. The 1000-VM
// built-in is left to the nightly job.
func TestBuiltinArtifactDigests(t *testing.T) {
	for name, want := range map[string]string{
		"diurnal":   "d080f7dffe18ecbebd26143e4ca28bc427b698f7393ceec77c0962c48bdf9329",
		"heavytail": "d921574beef8ceecdab1bfb6eea01723a2e6ec4903c953ada093640dd13b8b49",
		"lossy":     "35634b3b7767adc708015d57ca8ade1756d2ce13482c2be0b076244a1bbec81b",
		"flaps":     "5174fa49318a70d79750740aaa9294a209ae36e124a2059c97b92e53f1d3278d",
		"hetfleet":  "6f2138bfe6ad03366bf147098e2399f99d25755b266575e5252f1d5d5a6c725a",
	} {
		sum := sha256.Sum256(artifact(t, Lookup(name)))
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("built-in %s artifact sha256 %s, want %s", name, got, want)
		}
	}
}

// TestGoldenArtifact pins the mini scenario's artifact byte-for-byte. Any
// change to the simulator, the DSL defaults, RNG derivation or the artifact
// schema shows up here as a diff; regenerate deliberately with
//
//	go test ./internal/scenario -run TestGoldenArtifact -update
func TestGoldenArtifact(t *testing.T) {
	got := artifact(t, loadMini(t))
	golden := filepath.Join("testdata", "golden", "mini.artifact.json")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("artifact drifted from golden %s (%d vs %d bytes); inspect the diff and rerun with -update only if the change is intended",
			golden, len(got), len(want))
	}
}
