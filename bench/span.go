package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Start and End are nanoseconds since
// the recorder's epoch; Parent is the ID of the span that was open on the
// same track when this one began (-1 for none); Stream identifies the
// stream or connection, shared by every span of one request path.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Stream int    `json:"stream"`
}

// recorder keeps spans in memory until the run ends. Each goroutine that
// records owns a track, so recording takes no lock; a nil recorder hands
// out nil tracks, whose methods do nothing.
type recorder struct {
	epoch  time.Time
	mu     sync.Mutex
	tracks []*track
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// track returns a new single-goroutine span log for the given stream.
func (r *recorder) track(stream int) *track {
	if r == nil {
		return nil
	}
	t := &track{rec: r, stream: stream}
	r.mu.Lock()
	r.tracks = append(r.tracks, t)
	r.mu.Unlock()
	return t
}

// since converts an instant to the recorder's nanosecond timeline.
func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

type track struct {
	rec    *recorder
	stream int
	spans  []span // Parent holds a track-local index until merged
	open   []int  // stack of spans begun and not yet ended
}

// begin opens a span as a child of the innermost open one and returns its
// handle for end.
func (t *track) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: t.rec.since(time.Now()), Parent: parent, Stream: t.stream})
	t.open = append(t.open, i)
	return i
}

// end closes the span begin returned; spans close innermost first.
func (t *track) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = t.rec.since(time.Now())
	t.open = t.open[:len(t.open)-1]
}

// merged returns every finished span with run-wide IDs, ordered by start.
// Call it only after the recording goroutines have stopped.
func (r *recorder) merged() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var all []span
	for _, t := range r.tracks {
		base := len(all)
		for i, s := range t.spans {
			s.ID = base + i
			if s.Parent >= 0 {
				s.Parent += base
			}
			all = append(all, s)
		}
	}
	return all
}

// writeSpans writes spans to path as one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTime is what the spans of one name add up to.
type layerTime struct {
	count int
	total int64 // ns inside the spans
	self  int64 // total minus the part their child spans cover
}

// selfTimes sums, per span name, duration and self time of the spans that
// start inside [from, to). A span's self time is its duration minus the
// union of its direct children's intervals, clipped to the span.
func selfTimes(spans []span, from, to int64) map[string]layerTime {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]layerTime)
	for _, s := range spans {
		if s.Start < from || s.Start >= to {
			continue
		}
		lt := out[s.Name]
		lt.count++
		lt.total += s.End - s.Start
		lt.self += s.End - s.Start - covered(s, children[s.ID])
		out[s.Name] = lt
	}
	return out
}

// covered returns how much of parent's interval its children cover.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum int64
	edge := parent.Start // everything before edge is already counted
	for _, k := range kids {
		lo, hi := max(k.Start, edge), min(k.End, parent.End)
		if hi > lo {
			sum += hi - lo
			edge = hi
		}
	}
	return sum
}

// spanWriter records one span per Write into w.
type spanWriter struct {
	w    io.Writer
	t    *track
	name string
}

func (s spanWriter) Write(p []byte) (int, error) {
	i := s.t.begin(s.name)
	n, err := s.w.Write(p)
	s.t.end(i)
	return n, err
}

// spanReader records one span per Read from r.
type spanReader struct {
	r    io.Reader
	t    *track
	name string
}

func (s spanReader) Read(p []byte) (int, error) {
	i := s.t.begin(s.name)
	n, err := s.r.Read(p)
	s.t.end(i)
	return n, err
}

// spanConn is the tunnel.Config.WrapWire shim: a span around every read and
// write of a tunnel's wire-side connection, and a count of the writes. The
// relay reads and writes a connection from different goroutines, so each
// direction has its own track. Half-close is forwarded, since the relay
// signals end of stream with it.
type spanConn struct {
	net.Conn
	rdName, wrName string
	rd, wr         *track
	writes         *atomic.Int64
}

func (c *spanConn) Read(p []byte) (int, error) {
	i := c.rd.begin(c.rdName)
	n, err := c.Conn.Read(p)
	c.rd.end(i)
	return n, err
}

func (c *spanConn) Write(p []byte) (int, error) {
	i := c.wr.begin(c.wrName)
	n, err := c.Conn.Write(p)
	c.wr.end(i)
	c.writes.Add(1)
	return n, err
}

func (c *spanConn) CloseWrite() error { return c.Conn.(*net.TCPConn).CloseWrite() }
func (c *spanConn) CloseRead() error  { return c.Conn.(*net.TCPConn).CloseRead() }
