//go:build race

package experiments

// raceEnabled reports that this binary was built with the race detector,
// whose instrumentation and sync.Pool behaviour add allocations and
// invalidate allocation-count assertions.
const raceEnabled = true
