package main

import (
	"fmt"
	"os"
	"time"

	"adaptio/internal/core"
	"adaptio/internal/experiments"
)

// runDeciderMatrix is the `-decider-matrix` entry point: the Table II
// completion-time grid under every registered decider policy plus the
// never-probe sentinel row, printed as the per-policy comparison table and
// optionally written as the JSON artifact (-json-out) committed as
// BENCH_decider.json. The run is fully deterministic in -seed, so the
// artifact is byte-reproducible; internal/experiments' TestDeciderMatrixGolden
// holds the committed file to it.
//
// The two-axis acceptance bound (docs/deciders.md) is enforced here too:
// each learned policy must stay within-or-better on completion time in
// every cell AND waste strictly fewer probes than AlgorithmOne over the
// grid. Exit codes: 0 bound holds, 1 a policy violates it, 2 run errors.
func runDeciderMatrix(seed uint64, jsonOut string) int {
	start := time.Now()
	res, err := experiments.DeciderMatrix(seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "expdriver: decider matrix: %v\n", err)
		return 2
	}
	fmt.Print(res.Render())
	fmt.Printf("  wall %v\n", time.Since(start).Round(time.Millisecond))

	code := 0
	for _, policy := range core.PolicyNames() {
		if policy == core.PolicyAlgorithmOne {
			continue
		}
		violations := res.CheckBound(policy, core.PolicyAlgorithmOne, experiments.DefaultThroughputTolerance)
		for _, v := range violations {
			fmt.Printf("decider-matrix: FAIL: %s violates the %s axis: %s\n", v.Policy, v.Axis, v.Detail)
			code = 1
		}
		if len(violations) == 0 {
			p, w := res.Totals(policy)
			fmt.Printf("decider-matrix: %s holds the two-axis bound (%d probes, %d wasted)\n", policy, p, w)
		}
	}

	if jsonOut != "" {
		data, err := res.BenchJSON()
		if err == nil {
			err = os.WriteFile(jsonOut, data, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "expdriver: %v\n", err)
			return 2
		}
		fmt.Printf("  artifact written to %s\n", jsonOut)
	}
	return code
}
