package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"

	"adaptio/internal/block"
)

// procSnapshot is the process-wide state read at both edges of a timed run.
type procSnapshot struct {
	cpuSeconds float64 // user + system CPU of this process
	mallocs    uint64
	allocBytes uint64
	gcPauseNs  uint64
	blockGets  int64
	blockRels  int64
	blockDisc  int64
}

func readProc() (procSnapshot, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return procSnapshot{}, fmt.Errorf("getrusage: %w", err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := procSnapshot{
		cpuSeconds: tvSeconds(ru.Utime) + tvSeconds(ru.Stime),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcPauseNs:  ms.PauseTotalNs,
	}
	s.blockGets, s.blockRels, s.blockDisc = block.Stats()
	return s, nil
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// peakRSSMB returns this process's resident-set high-water mark. VmHWM
// belongs to the address space, so it starts afresh in each workload's
// process; getrusage's ru_maxrss would carry over the parent's peak across
// exec.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(status, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			fields := bytes.Fields(rest)
			if len(fields) != 2 || string(fields[1]) != "kB" {
				break
			}
			kb, err := strconv.ParseFloat(string(fields[0]), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
