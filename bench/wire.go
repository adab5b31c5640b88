package main

import (
	"io"
	"sync/atomic"
	"time"
)

// stepSchedule is the paced wire's rate plan: equal-length phases, each at
// a fixed byte rate — background connections joining and leaving the shared
// NIC, as in the paper's Figs. 4–6. Instants before the first phase (the
// warm-up) run at the first rate, instants after the last at the last.
type stepSchedule struct {
	rates []float64 // bytes per second, one per phase
	phase time.Duration
}

// scarceRatesMBps is the fixed schedule of the scarce-* workloads.
var scarceRatesMBps = []float64{20, 8, 20, 40}

// scarceSchedule spreads scarceRatesMBps over a timed run of the given
// length.
func scarceSchedule(run time.Duration) stepSchedule {
	rates := make([]float64, len(scarceRatesMBps))
	for i, mb := range scarceRatesMBps {
		rates[i] = mb * 1e6
	}
	return stepSchedule{rates: rates, phase: run / time.Duration(len(rates))}
}

func (s stepSchedule) rateAt(t time.Duration) float64 {
	i := 0
	if t > 0 && s.phase > 0 {
		i = int(t / s.phase)
	}
	if i >= len(s.rates) {
		i = len(s.rates) - 1
	}
	return s.rates[i]
}

// allowed returns the bytes the schedule lets through over its phases.
func (s stepSchedule) allowed() float64 {
	var total float64
	for _, r := range s.rates {
		total += r * s.phase.Seconds()
	}
	return total
}

const (
	// paceChunk is the largest piece released at once: small enough that a
	// 128 KB frame leaves as a paced trickle, not a burst.
	paceChunk = 16 << 10
	// paceCredit caps how far behind its schedule the pacer may fall and
	// still catch up: a writer that stays away longer (compressing, or
	// descheduled) loses the wire time beyond it, as on a real link.
	paceCredit = 5 * time.Millisecond
)

// pacedWriter is the benchmark's shared NIC: it releases writes to dst in
// paceChunk pieces, each at its due time on an absolute schedule. Because
// the next due time advances from the previous due time, not from the
// wake-up, oversleeping never lowers the delivered rate (the defect that
// makes internal/ratelimit under-deliver). Write is for one goroutine; the
// counters may be read from any.
type pacedWriter struct {
	dst    io.Writer
	sched  stepSchedule
	origin time.Time // schedule time zero: the start of the timed run
	due    time.Time // when the next chunk may leave

	now   func() time.Time
	sleep func(time.Duration)

	sent    atomic.Int64 // bytes released to dst
	sleptNs atomic.Int64 // time spent waiting for due times
}

func newPacedWriter(dst io.Writer, sched stepSchedule, origin time.Time) *pacedWriter {
	return &pacedWriter{dst: dst, sched: sched, origin: origin, now: time.Now, sleep: time.Sleep}
}

func (p *pacedWriter) Write(b []byte) (int, error) {
	total := 0
	for len(b) > 0 {
		n := min(len(b), paceChunk)
		now := p.now()
		if floor := now.Add(-paceCredit); p.due.Before(floor) {
			p.due = floor
		}
		if wait := p.due.Sub(now); wait > 0 {
			p.sleep(wait)
			p.sleptNs.Add(int64(p.now().Sub(now)))
		}
		m, err := p.dst.Write(b[:n])
		total += m
		p.sent.Add(int64(m))
		if err != nil {
			return total, err
		}
		rate := p.sched.rateAt(p.due.Sub(p.origin))
		p.due = p.due.Add(time.Duration(float64(n) / rate * float64(time.Second)))
		b = b[n:]
	}
	return total, nil
}
