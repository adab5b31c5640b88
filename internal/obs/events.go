package obs

import (
	"sync"
	"time"
)

// DefaultEventCap bounds an EventLog when no capacity is given.
const DefaultEventCap = 256

// Event is one entry of an EventLog: a controller decision, a state
// transition, a lifecycle marker. Seq increases monotonically per log and
// survives ring-buffer eviction, so consumers can detect dropped events.
type Event struct {
	// Seq is the 1-based position of the event in the log's history.
	Seq uint64
	// Time is the wall-clock instant the event was appended.
	Time time.Time
	// Kind classifies the event ("probe", "revert", "task_done", ...).
	Kind string
	// Detail is a human-readable free-form payload.
	Detail string
}

// EventLog is a bounded ring buffer of events. Appends are O(1) and evict
// the oldest entry once the capacity is reached. Safe for concurrent use.
type EventLog struct {
	mu    sync.Mutex
	buf   []Event // ring storage, len == cap once full
	start int     // index of the oldest event
	size  int
	seq   uint64
	now   func() time.Time
}

// NewEventLog creates an unregistered event log with the given capacity
// (<=0 means DefaultEventCap). Prefer Scope.EventLog for registered logs.
func NewEventLog(capacity int) *EventLog {
	if capacity <= 0 {
		capacity = DefaultEventCap
	}
	return &EventLog{buf: make([]Event, 0, capacity), now: time.Now}
}

// SetNow overrides the log's clock; tests use it to make snapshots
// deterministic. Not intended for production callers.
func (l *EventLog) SetNow(now func() time.Time) {
	l.mu.Lock()
	l.now = now
	l.mu.Unlock()
}

// Add appends an event with the given kind and detail.
func (l *EventLog) Add(kind, detail string) {
	l.mu.Lock()
	l.seq++
	e := Event{Seq: l.seq, Time: l.now(), Kind: kind, Detail: detail}
	if len(l.buf) < cap(l.buf) {
		l.buf = append(l.buf, e)
	} else {
		l.buf[l.start] = e
		l.start = (l.start + 1) % len(l.buf)
	}
	l.size = len(l.buf)
	l.mu.Unlock()
}

// Len returns the number of retained events.
func (l *EventLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Total returns the number of events ever appended (>= Len once the ring
// has wrapped).
func (l *EventLog) Total() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Events returns the retained events, oldest first.
func (l *EventLog) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, l.size)
	for i := 0; i < l.size; i++ {
		out = append(out, l.buf[(l.start+i)%len(l.buf)])
	}
	return out
}

func (l *EventLog) jsonValue() any {
	type event struct {
		Seq    uint64 `json:"seq"`
		Time   string `json:"time"`
		Kind   string `json:"kind"`
		Detail string `json:"detail"`
	}
	events := l.Events()
	out := make([]event, len(events)) // non-nil: an empty log renders as []
	for i, e := range events {
		out[i] = event{e.Seq, e.Time.UTC().Format(time.RFC3339Nano), e.Kind, e.Detail}
	}
	return out
}
