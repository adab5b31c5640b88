// Package trace is the record/replay format of recorded load: cmd/acload
// records how many application bytes it completed per decision window, and
// internal/scenario replays the file through the cloud simulator as a demand
// curve, so real traffic shapes drive simulated fleets.
package trace

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sync"
)

// WindowedTraceVersion is the current trace file format version.
const WindowedTraceVersion = 1

// maxTraceWindows bounds a loaded trace (a year of 1-second windows) so a
// corrupt file cannot allocate unboundedly.
const maxTraceWindows = 32 << 20

// WindowRecord is one decision window of recorded load.
type WindowRecord struct {
	// AppBytes is the application-layer payload bytes completed in the
	// window.
	AppBytes int64 `json:"app_bytes"`
	// Cycles is the number of request cycles completed in the window.
	Cycles int64 `json:"cycles"`
}

// WindowedTrace is a recorded per-window load series.
type WindowedTrace struct {
	Version       int            `json:"version"`
	WindowSeconds float64        `json:"window_seconds"`
	Windows       []WindowRecord `json:"windows"`
}

// Validate checks the trace is structurally sound for replay.
func (t *WindowedTrace) Validate() error {
	if t == nil {
		return fmt.Errorf("trace: nil trace")
	}
	if t.Version != WindowedTraceVersion {
		return fmt.Errorf("trace: unsupported version %d (want %d)", t.Version, WindowedTraceVersion)
	}
	if math.IsNaN(t.WindowSeconds) || t.WindowSeconds <= 0 || t.WindowSeconds > 3600 {
		return fmt.Errorf("trace: window seconds %v out of (0, 3600]", t.WindowSeconds)
	}
	if len(t.Windows) == 0 {
		return fmt.Errorf("trace: no windows")
	}
	if len(t.Windows) > maxTraceWindows {
		return fmt.Errorf("trace: %d windows exceeds limit %d", len(t.Windows), maxTraceWindows)
	}
	for i, w := range t.Windows {
		if w.AppBytes < 0 || w.Cycles < 0 {
			return fmt.Errorf("trace: window %d has negative counts", i)
		}
	}
	return nil
}

// TotalAppBytes sums the trace's application bytes.
func (t *WindowedTrace) TotalAppBytes() int64 {
	var s int64
	for _, w := range t.Windows {
		s += w.AppBytes
	}
	return s
}

// Save writes the trace as indented JSON.
func (t *WindowedTrace) Save(path string) error {
	if err := t.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return fmt.Errorf("trace: marshal: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// LoadWindowed reads and validates a recorded trace file.
func LoadWindowed(path string) (*WindowedTrace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	var t WindowedTrace
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("trace: %s: decode: %w", path, err)
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	return &t, nil
}

// Recorder accumulates completed work into fixed decision windows. It is
// clock-free: callers report their own elapsed time, so it records
// identically under wall clocks, virtual clocks and tests. Safe for
// concurrent use by many workers.
type Recorder struct {
	windowSeconds float64

	mu      sync.Mutex
	windows []WindowRecord
}

// NewRecorder creates a recorder with the given window length in seconds
// (values <= 0 mean 1 s).
func NewRecorder(windowSeconds float64) *Recorder {
	if !(windowSeconds > 0) || windowSeconds > 3600 {
		windowSeconds = 1
	}
	return &Recorder{windowSeconds: windowSeconds}
}

// Record attributes one completed cycle of appBytes payload to the window
// containing elapsedSeconds. Out-of-range values are dropped rather than
// panicking (a worker may report a final cycle after the run's nominal end).
func (r *Recorder) Record(elapsedSeconds float64, appBytes int64) {
	if r == nil || math.IsNaN(elapsedSeconds) || elapsedSeconds < 0 || appBytes < 0 {
		return
	}
	w := int(elapsedSeconds / r.windowSeconds)
	if w < 0 || w >= maxTraceWindows {
		return
	}
	r.mu.Lock()
	for len(r.windows) <= w {
		r.windows = append(r.windows, WindowRecord{})
	}
	r.windows[w].AppBytes += appBytes
	r.windows[w].Cycles++
	r.mu.Unlock()
}

// Snapshot returns the recorded trace so far (a copy).
func (r *Recorder) Snapshot() *WindowedTrace {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := &WindowedTrace{
		Version:       WindowedTraceVersion,
		WindowSeconds: r.windowSeconds,
		Windows:       append([]WindowRecord(nil), r.windows...),
	}
	return out
}
