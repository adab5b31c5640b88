package main

import (
	"io"
	"math"
	"testing"
	"time"

	"adaptio/internal/xrand"
)

// lateClock is a virtual clock whose sleeps overshoot, the way a loaded
// machine's do: each sleep lasts up to 2 ms longer than asked, and every
// two-hundredth stalls for 8 ms, 3 ms beyond what the pacer's credit
// forgives.
type lateClock struct {
	t   time.Time
	rng *xrand.RNG
	n   int
}

func (c *lateClock) now() time.Time { return c.t }

func (c *lateClock) sleep(d time.Duration) {
	c.n++
	late := time.Duration(c.rng.Float64() * float64(2*time.Millisecond))
	if c.n%200 == 0 {
		late = 8 * time.Millisecond
	}
	c.t = c.t.Add(d + late)
}

// TestPacedWriterDeliversSchedule is the pacer's accuracy test: over 2 s
// at 8 and at 40 MB/s it delivers within 2 % of the scheduled bytes, and
// never more, although every sleep oversleeps. It runs on virtual time so
// that the result does not depend on the machine's load; wire.utilisation
// reports the same ratio on real time in every traced scarce-* run.
func TestPacedWriterDeliversSchedule(t *testing.T) {
	for _, mbps := range []float64{8, 40} {
		clock := &lateClock{t: time.Unix(1000, 0), rng: xrand.New(7)}
		sched := stepSchedule{rates: []float64{mbps * 1e6}, phase: 2 * time.Second}
		start := clock.now()
		p := newPacedWriter(io.Discard, sched, start)
		p.now, p.sleep = clock.now, clock.sleep

		frame := make([]byte, 70<<10) // a compressed 128 KB block
		for clock.now().Sub(start) < 2*time.Second {
			if _, err := p.Write(frame); err != nil {
				t.Fatal(err)
			}
			clock.t = clock.t.Add(300 * time.Microsecond) // the writer compresses the next block
		}
		elapsed := clock.now().Sub(start).Seconds()
		got := float64(p.sent.Load()) / (mbps * 1e6 * elapsed)
		t.Logf("%g MB/s: delivered %.4f of the scheduled bytes, %d sleeps", mbps, got, clock.n)
		if got < 0.98 || got > 1.02 {
			t.Errorf("%g MB/s: delivered %.4f of the scheduled bytes over %.3f s, want within 2 %%", mbps, got, elapsed)
		}
		if clock.n == 0 || p.sleptNs.Load() == 0 {
			t.Errorf("%g MB/s: the pacer never waited", mbps)
		}
	}
}

// TestPacedWriterCapsCredit checks that a writer that stays away does not
// get the missed wire time back: after an idle second at most paceCredit
// worth of bytes leave without a wait.
func TestPacedWriterCapsCredit(t *testing.T) {
	clock := &lateClock{t: time.Unix(1000, 0), rng: xrand.New(7)}
	const rate = 10e6
	p := newPacedWriter(io.Discard, stepSchedule{rates: []float64{rate}, phase: time.Hour}, clock.now())
	p.now, p.sleep = clock.now, clock.sleep
	if _, err := p.Write(make([]byte, paceChunk)); err != nil {
		t.Fatal(err)
	}
	clock.t = clock.t.Add(time.Second)
	slept := clock.n
	burst := 0
	for clock.n == slept {
		if _, err := p.Write(make([]byte, paceChunk)); err != nil {
			t.Fatal(err)
		}
		burst += paceChunk
	}
	if limit := rate*paceCredit.Seconds() + 2*paceChunk; float64(burst) > limit {
		t.Errorf("burst of %d bytes after idling, want at most %.0f", burst, limit)
	}
}

func TestStepSchedule(t *testing.T) {
	s := scarceSchedule(16 * time.Second)
	for _, c := range []struct {
		at   time.Duration
		mbps float64
	}{
		{-2 * time.Second, 20}, // warm-up runs at the first rate
		{0, 20},
		{3999 * time.Millisecond, 20},
		{4 * time.Second, 8},
		{8 * time.Second, 20},
		{12 * time.Second, 40},
		{17 * time.Second, 40}, // the drain after the run at the last
	} {
		if got := s.rateAt(c.at) / 1e6; got != c.mbps {
			t.Errorf("rate at %v = %g MB/s, want %g", c.at, got, c.mbps)
		}
	}
	if got, want := s.allowed(), (20+8+20+40)*1e6*4.0; math.Abs(got-want) > 1 {
		t.Errorf("allowed = %g bytes, want %g", got, want)
	}
}
