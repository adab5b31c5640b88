//go:build !linux

package experiments_test

import "time"

var processStart = time.Now()

// threadCPU falls back to the wall clock where the thread CPU clock is not
// wired up.
func threadCPU() time.Duration { return time.Since(processStart) }
