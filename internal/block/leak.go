package block

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// Leak tracking (test mode). When enabled — via blocktest.Track(t) in test
// suites — every Get records the acquiring call stack and every Release
// removes it, so a test can assert that the set of live buffers it created
// drained to empty. Tracking is refcounted so overlapping tests compose,
// and disabled entirely in production: the fast path is one atomic load.

// trackingRefs counts active trackers; tracking is on while > 0.
var trackingRefs atomic.Int32

var trackState struct {
	sync.Mutex
	seq  uint64          // last Buf incarnation id; ids start at 1
	live map[*Buf]string // live tracked bufs -> acquiring stack
}

// Snapshot identifies the live tracked buffers at one instant. Buffers
// present in a snapshot are ignored by LeakedSince, so concurrent
// long-lived owners do not produce false positives.
type Snapshot map[*Buf]uint64

// StartTracking enables leak tracking and returns a snapshot of the
// currently live tracked buffers plus a stop function that decrements the
// tracking refcount. Intended to be used through blocktest.Track.
func StartTracking() (Snapshot, func()) {
	trackState.Lock()
	if trackState.live == nil {
		trackState.live = make(map[*Buf]string)
	}
	snap := make(Snapshot, len(trackState.live))
	for b := range trackState.live {
		snap[b] = b.seq
	}
	trackState.Unlock()
	trackingRefs.Add(1)
	var once sync.Once
	return snap, func() { once.Do(func() { trackingRefs.Add(-1) }) }
}

// LeakedSince returns the acquiring stacks of tracked buffers that are
// still live and were acquired after the snapshot was taken.
func LeakedSince(snap Snapshot) []string {
	trackState.Lock()
	defer trackState.Unlock()
	var out []string
	for b, stack := range trackState.live {
		if seq, ok := snap[b]; ok && seq == b.seq {
			continue // already live when the snapshot was taken
		}
		out = append(out, stack)
	}
	sort.Strings(out)
	return out
}

func trackGet(b *Buf) {
	if trackingRefs.Load() == 0 {
		b.seq = 0 // untracked: Release skips the tracker
		return
	}
	stack := callerStack()
	trackState.Lock()
	trackState.seq++
	b.seq = trackState.seq
	if trackState.live == nil {
		trackState.live = make(map[*Buf]string)
	}
	trackState.live[b] = stack
	trackState.Unlock()
}

// trackRelease forgets a tracked Buf, even after tracking was switched
// off, so buffers acquired while it was on do not linger in live. A Buf
// acquired untracked has seq 0 and costs nothing here.
func trackRelease(b *Buf) {
	if b.seq == 0 {
		return
	}
	trackState.Lock()
	delete(trackState.live, b)
	trackState.Unlock()
}

// callerStack formats the Get call site chain (skipping the block package
// frames) for leak reports.
func callerStack() string {
	var pcs [12]uintptr
	n := runtime.Callers(4, pcs[:])
	frames := runtime.CallersFrames(pcs[:n])
	var out string
	for {
		f, more := frames.Next()
		out += fmt.Sprintf("  %s\n    %s:%d\n", f.Function, f.File, f.Line)
		if !more {
			break
		}
	}
	return out
}
