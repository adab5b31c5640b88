// Package metrics implements the measurement methodology of Section II-A:
// sampling the Linux /proc/stat interface at one-second intervals and
// computing CPU-utilization percentages split into user (USR), kernel (SYS),
// hardware-interrupt (HIRQ), software-interrupt (SIRQ) and steal (STEAL)
// time from the counter deltas.
//
// The same parser and sampler run against two sources: the real /proc/stat
// of the machine (cmd/acprobe, live only) and the simulated counters emitted
// by internal/cloudsim (the Figure 1 experiment, cmd/expdriver -fig1).
package metrics

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// CPUCounters are the cumulative jiffy counters of a /proc/stat "cpu" line.
type CPUCounters struct {
	User, Nice, System, Idle, IOWait, IRQ, SoftIRQ, Steal uint64
}

// Busy returns the non-idle jiffies.
func (c CPUCounters) Busy() uint64 {
	return c.User + c.Nice + c.System + c.IRQ + c.SoftIRQ + c.Steal
}

// Total returns all accounted jiffies.
func (c CPUCounters) Total() uint64 {
	return c.Busy() + c.Idle + c.IOWait
}

// ErrNoCPULine is returned when the input contains no aggregate cpu line.
var ErrNoCPULine = errors.New("metrics: no 'cpu' line in /proc/stat input")

// ParseProcStat extracts the aggregate "cpu" line from /proc/stat content.
func ParseProcStat(text string) (CPUCounters, error) {
	var c CPUCounters
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 8 || fields[0] != "cpu" {
			continue
		}
		vals := make([]uint64, 0, 8)
		for _, f := range fields[1:min(len(fields), 9)] {
			v, err := strconv.ParseUint(f, 10, 64)
			if err != nil {
				return c, fmt.Errorf("metrics: bad counter %q: %v", f, err)
			}
			vals = append(vals, v)
		}
		for len(vals) < 8 {
			vals = append(vals, 0) // pre-2.6.11 kernels lack steal
		}
		c.User, c.Nice, c.System, c.Idle = vals[0], vals[1], vals[2], vals[3]
		c.IOWait, c.IRQ, c.SoftIRQ, c.Steal = vals[4], vals[5], vals[6], vals[7]
		return c, nil
	}
	return c, ErrNoCPULine
}

// Utilization is one sampled interval expressed in percent of one CPU.
type Utilization struct {
	USR   float64 // user + nice
	SYS   float64
	HIRQ  float64
	SIRQ  float64
	STEAL float64
	Idle  float64 // idle + iowait
}

// Busy returns the summed non-idle percentage.
func (u Utilization) Busy() float64 { return u.USR + u.SYS + u.HIRQ + u.SIRQ + u.STEAL }

// Source provides /proc/stat-formatted snapshots.
type Source interface {
	ReadStat() (string, error)
}

// FileSource reads a path (normally /proc/stat) on every sample.
type FileSource string

// ReadStat implements Source.
func (f FileSource) ReadStat() (string, error) {
	b, err := os.ReadFile(string(f))
	return string(b), err
}

// FuncSource adapts a function (e.g. cloudsim counters) to Source.
type FuncSource func() (string, error)

// ReadStat implements Source.
func (f FuncSource) ReadStat() (string, error) { return f() }

// Sampler computes utilization percentages from successive counter deltas,
// the exact methodology of the paper's 1 s sampling loop.
type Sampler struct {
	src      Source
	prev     CPUCounters
	havePrev bool
}

// NewSampler creates a sampler over src.
func NewSampler(src Source) *Sampler { return &Sampler{src: src} }

// Sample reads the source and returns the utilization since the previous
// call. The first call primes the baseline and returns ok=false.
func (s *Sampler) Sample() (u Utilization, ok bool, err error) {
	text, err := s.src.ReadStat()
	if err != nil {
		return u, false, err
	}
	cur, err := ParseProcStat(text)
	if err != nil {
		return u, false, err
	}
	if !s.havePrev {
		s.prev = cur
		s.havePrev = true
		return u, false, nil
	}
	delta := func(a, b uint64) float64 {
		if a < b { // counter wrap or vm migration: skip interval
			return 0
		}
		return float64(a - b)
	}
	du := delta(cur.User, s.prev.User) + delta(cur.Nice, s.prev.Nice)
	ds := delta(cur.System, s.prev.System)
	dh := delta(cur.IRQ, s.prev.IRQ)
	dsi := delta(cur.SoftIRQ, s.prev.SoftIRQ)
	dst := delta(cur.Steal, s.prev.Steal)
	di := delta(cur.Idle, s.prev.Idle) + delta(cur.IOWait, s.prev.IOWait)
	total := du + ds + dh + dsi + dst + di
	s.prev = cur
	if total == 0 {
		return u, false, nil
	}
	f := 100 / total
	return Utilization{
		USR:   du * f,
		SYS:   ds * f,
		HIRQ:  dh * f,
		SIRQ:  dsi * f,
		STEAL: dst * f,
		Idle:  di * f,
	}, true, nil
}
