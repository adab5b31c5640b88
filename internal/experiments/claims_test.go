package experiments_test

import (
	"strings"
	"testing"

	"adaptio/internal/experiments"
)

// paperRun is the harness's default run, expdriver with no flags, at seed.
func paperRun(seed uint64) experiments.TableIIConfig {
	return experiments.TableIIConfig{TotalBytes: experiments.FiftyGB, Runs: 5, Seed: seed}
}

// TestAllPaperClaimsReproduce is the reproduction's acceptance test: every
// quantitative claim in the checklist must pass at the paper's full volume.
func TestAllPaperClaimsReproduce(t *testing.T) {
	claims, err := experiments.VerifyClaims(paperRun(2011))
	if err != nil {
		t.Fatal(err)
	}
	if len(claims) < 9 {
		t.Fatalf("only %d claims checked", len(claims))
	}
	for _, c := range claims {
		if !c.Pass {
			t.Errorf("claim %s failed: %s\n  paper: %s\n  measured: %s", c.ID, c.Text, c.Paper, c.Measured)
		}
	}
	if !experiments.AllPass(claims) && !t.Failed() {
		t.Error("AllPass disagrees with individual claims")
	}
	out := experiments.RenderClaims(claims)
	for _, want := range []string{"PASS", "S4-22pct", "claims reproduced"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

// TestClaimsStableAcrossSeeds guards against a lucky-seed reproduction: the
// checklist must hold for several seeds.
func TestClaimsStableAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep")
	}
	for _, seed := range []uint64{1, 7, 1337} {
		claims, err := experiments.VerifyClaims(paperRun(seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range claims {
			if !c.Pass {
				t.Errorf("seed %d: claim %s failed (measured: %s)", seed, c.ID, c.Measured)
			}
		}
	}
}
