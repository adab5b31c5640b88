// Package ratelimit provides a token-bucket rate-limited io.Writer. The
// examples and integration tests use it to emulate the scarce, shared wire
// bandwidth of a cloud NIC on top of fast local transports, which is the
// regime where adaptive compression pays off.
package ratelimit

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"time"
)

// Writer throttles writes to an underlying writer at a fixed byte rate.
// It is safe for concurrent use (writes serialize).
type Writer struct {
	mu    sync.Mutex
	w     io.Writer
	rate  float64 // bytes per second
	burst float64 // bucket capacity in bytes

	tokens float64
	last   time.Time
	sleep  func(time.Duration) // test seam
	now    func() time.Time    // test seam
}

// NewWriter wraps w with a byte-rate limit. burst is the bucket size; zero
// means one typical block (128 KB). rate must be positive and finite.
func NewWriter(w io.Writer, bytesPerSecond float64, burst int) (*Writer, error) {
	if w == nil {
		return nil, errors.New("ratelimit: nil writer")
	}
	if err := checkRate(bytesPerSecond); err != nil {
		return nil, err
	}
	b := float64(burst)
	if burst <= 0 {
		b = 128 << 10
	}
	return &Writer{
		w:      w,
		rate:   bytesPerSecond,
		burst:  b,
		tokens: b,
		sleep:  time.Sleep,
		now:    time.Now,
	}, nil
}

// Write implements io.Writer. Large writes are split so the instantaneous
// rate stays close to the configured one.
func (rl *Writer) Write(p []byte) (int, error) {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	total := 0
	for len(p) > 0 {
		chunk := len(p)
		if float64(chunk) > rl.burst {
			chunk = int(rl.burst)
		}
		rl.take(float64(chunk))
		n, err := rl.w.Write(p[:chunk])
		total += n
		if err == nil && n == 0 {
			err = io.ErrShortWrite
		}
		if err != nil {
			return total, err
		}
		// A short count with a nil error (write(2)): refund the rest, resend it.
		rl.tokens += float64(chunk - n)
		p = p[n:]
	}
	return total, nil
}

// take consumes amount tokens, sleeping first when the bucket is short.
func (rl *Writer) take(amount float64) {
	rl.refill()
	rl.tokens -= amount
	if rl.tokens < 0 {
		rl.sleep(time.Duration(-rl.tokens / rl.rate * float64(time.Second)))
		// Credit the time actually slept, not the time asked for: a sleep
		// that overshoots has earned its tokens, and dropping them holds
		// the delivered rate below the configured one.
		rl.refill()
	}
}

// refill credits the time since the last refill, up to a full bucket.
func (rl *Writer) refill() {
	now := rl.now()
	if !rl.last.IsZero() {
		rl.tokens = math.Min(rl.burst, rl.tokens+now.Sub(rl.last).Seconds()*rl.rate)
	}
	rl.last = now
}

func checkRate(bytesPerSecond float64) error {
	if !(bytesPerSecond > 0) || math.IsInf(bytesPerSecond, 1) {
		return fmt.Errorf("ratelimit: rate %v bytes/s, want positive and finite", bytesPerSecond)
	}
	return nil
}
