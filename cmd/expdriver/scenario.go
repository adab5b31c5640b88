package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"adaptio/internal/scenario"
)

// runScenario is the generic `-scenario <name|file>` entry point: it
// resolves a built-in scenario (scenario.Builtins) or a JSON scenario file,
// executes every variant on the faster-than-real-time fleet simulator,
// prints the variant table plus the claim checklist, optionally writes the
// deterministic JSON artifact, and enforces the wall-clock budget — the CI
// gate that the simulator stays orders of magnitude faster than the
// workloads it models. A non-empty decider overrides the scenario's
// level-selection policy for the adaptive variant (docs/deciders.md).
// Exit codes: 0 all claims pass within budget, 1 a claim or the budget
// failed (an empty claim set counts as a failure: a run that gates nothing
// must not pass CI), 2 usage/decode errors.
func runScenario(nameOrPath string, seed uint64, rigName, decider, metricsOut string, maxWall time.Duration) int {
	rig, err := scenario.ParseRig(rigName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "expdriver: %v\n", err)
		return 2
	}
	sc, builtin, err := scenario.Resolve(nameOrPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "expdriver: %v\n", err)
		return 2
	}
	if sc.Seed == 0 {
		sc.Seed = seed
	}
	if decider != "" {
		sc.Decider = decider
		if err := sc.Validate(); err != nil {
			fmt.Fprintf(os.Stderr, "expdriver: %v\n", err)
			return 2
		}
	}

	start := time.Now()
	res, err := scenario.Run(sc, rig)
	if err != nil {
		fmt.Fprintf(os.Stderr, "expdriver: scenario %s: %v\n", sc.Name, err)
		return 2
	}
	wall := time.Since(start)

	kind := "file"
	if builtin {
		kind = "built-in"
	}
	fmt.Printf("Scenario %q (%s): %d streams, %d x %.0f s windows = %s simulated, seed %d",
		res.Scenario, kind, res.Streams, res.Windows, res.WindowSeconds,
		(time.Duration(res.SimulatedSeconds) * time.Second).String(), res.Seed)
	if res.Decider != "" {
		fmt.Printf(", decider %q", res.Decider)
	}
	if rig != scenario.RigNone {
		fmt.Printf(", RIG %q (sentinel run: claims are EXPECTED to fail)", rig)
	}
	fmt.Println()
	if sc.Description != "" {
		fmt.Printf("  %s\n", sc.Description)
	}

	fmt.Printf("  %-14s %12s %12s %10s %8s %8s %12s\n",
		"variant", "goodput MB/s", "wire MB/s", "switches", "flaps", "max sw", "app GB")
	for _, v := range res.Variants {
		wireMBps := 0.0
		if res.SimulatedSeconds > 0 {
			wireMBps = float64(v.WireBytes) / 1e6 / res.SimulatedSeconds
		}
		fmt.Printf("  %-14s %12.2f %12.2f %10d %8d %8d %12.2f\n",
			v.Name, v.GoodputMBps, wireMBps, v.Switches, v.Flaps, v.MaxStreamSwitches,
			float64(v.AppBytes)/1e9)
	}

	for _, c := range res.Claims {
		status := "PASS"
		if !c.Pass {
			status = "FAIL"
		}
		fmt.Printf("  claim %-32s %s  (%s)\n", c.Name, status, c.Detail)
	}

	speedup := 0.0
	if wall > 0 {
		speedup = res.SimulatedSeconds / wall.Seconds()
	}
	fmt.Printf("  wall %v for %s simulated: %.0fx faster than real time\n",
		wall.Round(time.Millisecond), (time.Duration(res.SimulatedSeconds) * time.Second).String(), speedup)

	if metricsOut != "" {
		data, err := res.MarshalArtifact()
		if err != nil {
			fmt.Fprintf(os.Stderr, "expdriver: %v\n", err)
			return 2
		}
		if err := os.WriteFile(metricsOut, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "expdriver: write %s: %v\n", metricsOut, err)
			return 2
		}
		fmt.Printf("  artifact written to %s\n", metricsOut)
	}

	code := 0
	if len(res.Claims) == 0 {
		// Only built-ins carry claims, so every scenario file lands here:
		// a run that gates nothing is a failure, not a pass.
		fmt.Printf("scenario %s: FAIL: no claims — the run verified nothing\n", res.Scenario)
		code = 1
	}
	if !res.ClaimsPass() {
		var failed []string
		for _, c := range res.Claims {
			if !c.Pass {
				failed = append(failed, c.Name)
			}
		}
		fmt.Printf("scenario %s: FAIL: claims not met: %s\n", res.Scenario, strings.Join(failed, ", "))
		code = 1
	}
	if maxWall > 0 && wall > maxWall {
		fmt.Printf("scenario %s: FAIL: wall clock %v exceeded the -max-wall budget %v\n",
			res.Scenario, wall.Round(time.Millisecond), maxWall)
		code = 1
	}
	if code == 0 {
		fmt.Printf("scenario %s: PASS\n", res.Scenario)
	}
	return code
}
