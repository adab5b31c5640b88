package cloudsim_test

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"adaptio/internal/baseline"
	"adaptio/internal/cloudsim"
	"adaptio/internal/coord"
	"adaptio/internal/core"
	"adaptio/internal/corpus"
)

// The seed goldens pin every field of TransferResult, FileTransferResult and
// FleetResult for a fixed seed set and policy set, with and without a Trace
// callback. Trace and the metric-driven baselines consume draws from the
// simulator's RNG, so the file also pins the draw order of the window loops:
// a refactor of the loops is byte-identical exactly when this test passes
// without -update. The file was generated before the loops were merged.
var updateSeedGolden = flag.Bool("update", false, "rewrite testdata/seed_results.golden")

var goldenSeeds = []uint64{1, 7, 0xBEEF}

// goldenPolicies builds one fresh policy per call. The coordinated entry
// only runs in the fleet (the solo loops have no fleet to coordinate).
var goldenPolicies = []struct {
	name string
	solo bool
	mk   func(c *coord.Coordinator) core.Policy
}{
	{"static0", true, func(*coord.Coordinator) core.Policy { return core.Static(0) }},
	{"static1", true, func(*coord.Coordinator) core.Policy { return core.Static(1) }},
	{"static2", true, func(*coord.Coordinator) core.Policy { return core.Static(2) }},
	{"static3", true, func(*coord.Coordinator) core.Policy { return core.Static(3) }},
	{"algone", true, func(*coord.Coordinator) core.Policy {
		return core.MustNewPolicy(core.PolicyAlgorithmOne, core.Config{Levels: 4})
	}},
	{"ewma", true, func(*coord.Coordinator) core.Policy {
		return core.MustNewPolicy(core.PolicyEWMA, core.Config{Levels: 4})
	}},
	{"krintz", true, func(*coord.Coordinator) core.Policy {
		k, err := baseline.NewKrintzSucu(baseline.DefaultTraining())
		if err != nil {
			panic(err)
		}
		return k
	}},
	{"coord", false, func(c *coord.Coordinator) core.Policy {
		return c.Register(coord.StreamConfig{})
	}},
}

func g(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func gs(fs []float64) string {
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = g(f)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func transferLine(r cloudsim.TransferResult) string {
	return fmt.Sprintf("completion=%s app=%d wire=%d windows=%d levelSeconds=%s switches=%d",
		g(r.CompletionSeconds), r.AppBytes, r.WireBytes, r.Windows, gs(r.LevelSeconds), r.LevelSwitches)
}

// traceDigest folds every field of every sample into one hash, so the golden
// pins the trace itself and not only its effect on the RNG.
type traceDigest struct {
	n int
	h uint64
}

func (d *traceDigest) add(fields string) {
	f := fnv.New64a()
	fmt.Fprintf(f, "%016x|%s", d.h, fields)
	d.h = f.Sum64()
	d.n++
}

func (d *traceDigest) String() string { return fmt.Sprintf("%d/%016x", d.n, d.h) }

func (d *traceDigest) window(ws cloudsim.WindowSample) {
	c := ws.GuestCPU
	d.add(strings.Join([]string{g(ws.Time), strconv.Itoa(ws.Level), g(ws.AppMBps), g(ws.WireMBps),
		g(c.USR), g(c.SYS), g(c.HIRQ), g(c.SIRQ), g(c.STEAL), ws.Kind.String()}, ","))
}

func soloConfig(p cloudsim.Platform, seed uint64, s core.Policy) cloudsim.TransferConfig {
	return cloudsim.TransferConfig{
		Platform:   p,
		Kind:       cloudsim.AlternatingKinds(1e9, corpus.High, corpus.Low, corpus.Moderate),
		TotalBytes: 5e9,
		Background: 2,
		Scheme:     s,
		Profiles:   cloudsim.ReferenceProfiles(),
		Seed:       seed,
	}
}

func fleetConfig(seed uint64, mk func() core.Policy) cloudsim.FleetConfig {
	kinds := []cloudsim.KindSchedule{
		cloudsim.ConstantKind(corpus.Moderate),
		cloudsim.ConstantKind(corpus.High),
		cloudsim.AlternatingKinds(150e6, corpus.Moderate, corpus.Low),
	}
	streams := make([]cloudsim.FleetStream, 6)
	for i := range streams {
		streams[i] = cloudsim.FleetStream{
			Kind:      kinds[i%len(kinds)],
			Scheme:    mk(),
			Weight:    1 + float64(i%2),
			CPUFactor: 0.4 + 0.12*float64(i),
			Tenant:    []string{"silver", "gold"}[i%2],
		}
	}
	// One request-driven stream, so the offered-load cap is on the path.
	streams[4].DemandMBps = func(t float64) float64 { return 3 + float64(int(t/20)%3) }
	return cloudsim.FleetConfig{
		NICMBps:       40,
		Windows:       120,
		WindowSeconds: 2,
		Profiles:      cloudsim.ReferenceProfiles(),
		Streams:       streams,
		Seed:          seed,
		NICSigma:      0.08,
		CPUSigma:      0.03,
	}
}

func seedGolden(t *testing.T) string {
	var sb strings.Builder
	for _, seed := range goldenSeeds {
		for _, pol := range goldenPolicies {
			for _, traced := range []bool{false, true} {
				tag := fmt.Sprintf("seed=%d policy=%s trace=%v", seed, pol.name, traced)
				if pol.solo {
					for _, p := range []cloudsim.Platform{cloudsim.KVMParavirt, cloudsim.EC2} {
						cfg := soloConfig(p, seed, pol.mk(nil))
						var d traceDigest
						if traced {
							cfg.Trace = d.window
						}
						r, err := cloudsim.RunTransfer(cfg)
						if err != nil {
							t.Fatalf("transfer %s %v: %v", tag, p, err)
						}
						fmt.Fprintf(&sb, "transfer %v %s: %s samples=%v\n", p, tag, transferLine(r), &d)
					}
					for _, p := range []cloudsim.Platform{cloudsim.KVMParavirt, cloudsim.XenParavirt} {
						cfg := soloConfig(p, seed, pol.mk(nil))
						var d traceDigest
						if traced {
							cfg.Trace = d.window
						}
						r, err := cloudsim.RunFileTransfer(cfg)
						if err != nil {
							t.Fatalf("file %s %v: %v", tag, p, err)
						}
						fmt.Fprintf(&sb, "file %v %s: %s durable=%s cacheResident=%d samples=%v\n", p, tag,
							transferLine(r.TransferResult), g(r.DurableSeconds), r.CacheResidentAtCompletion, &d)
					}
				}

				c := coord.MustNew(coord.Config{BudgetBytesPerSec: 40e6, Levels: 4})
				cfg := fleetConfig(seed, func() core.Policy { return pol.mk(c) })
				var d traceDigest
				if traced {
					cfg.Trace = func(s cloudsim.FleetWindowSample) {
						d.add(strings.Join([]string{strconv.Itoa(s.Window), g(s.Time), g(s.AppMBps), g(s.WireMBps),
							strconv.FormatInt(s.AppBytes, 10), strconv.FormatInt(s.WireBytes, 10)}, ","))
					}
				}
				r, err := cloudsim.RunFleet(cfg)
				if err != nil {
					t.Fatalf("fleet %s: %v", tag, err)
				}
				fmt.Fprintf(&sb, "fleet %s: app=%d wire=%d switches=%d flaps=%d windows=%d samples=%v\n",
					tag, r.AppBytes, r.WireBytes, r.Switches, r.Flaps, r.Windows, &d)
				for i, ps := range r.PerStream {
					fmt.Fprintf(&sb, "  stream %d: app=%d wire=%d switches=%d flaps=%d final=%d tenant=%s\n",
						i, ps.AppBytes, ps.WireBytes, ps.Switches, ps.Flaps, ps.FinalLevel, ps.Tenant)
				}
			}
		}
	}
	return sb.String()
}

func TestSeedGolden(t *testing.T) {
	got := seedGolden(t)
	path := filepath.Join("testdata", "seed_results.golden")
	if *updateSeedGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with: go test ./internal/cloudsim -run TestSeedGolden -update)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("seed golden differs at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("seed golden length differs: got %d lines, want %d", len(gl), len(wl))
}
