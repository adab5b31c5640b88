//go:build race

package tunnel_test

// raceEnabled reports that this binary was built with the race detector,
// whose shadow memory and slowdown invalidate heap and timing assertions
// (correctness assertions still run).
const raceEnabled = true
