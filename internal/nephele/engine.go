package nephele

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"adaptio/internal/stream"
)

// TaskContext gives a running subtask access to its input and output gates
// and its position in the parallel plan.
type TaskContext struct {
	Job         string
	Vertex      string
	Subtask     int
	Parallelism int

	ctx     context.Context
	inputs  []*InputGate
	outputs []*OutputGate
}

// Context returns the job's cancellation context.
func (c *TaskContext) Context() context.Context { return c.ctx }

// NumInputs returns the number of input gates (one per incoming edge).
func (c *TaskContext) NumInputs() int { return len(c.inputs) }

// NumOutputs returns the number of output gates (one per outgoing edge).
func (c *TaskContext) NumOutputs() int { return len(c.outputs) }

// Input returns the i-th input gate.
func (c *TaskContext) Input(i int) *InputGate { return c.inputs[i] }

// Output returns the i-th output gate.
func (c *TaskContext) Output(i int) *OutputGate { return c.outputs[i] }

// InputGate merges the record streams of all producer subtasks of one edge.
type InputGate struct {
	links []link // one per producer subtask
	spec  ChannelSpec
	start sync.Once
	recs  chan inRec

	// stop releases producer goroutines blocked on a full recs channel when
	// the consuming subtask abandons the gate before EOF (task error).
	stop     chan struct{}
	stopOnce sync.Once
}

// abandon releases the gate's producer goroutines without draining. Safe to
// call multiple times and concurrently with ReadRecord.
func (g *InputGate) abandon() {
	g.stopOnce.Do(func() { close(g.stop) })
}

type inRec struct {
	rec []byte
	err error
}

// ReadRecord returns the next record from any producer. It returns io.EOF
// once every producer stream has ended. The returned slice is owned by the
// caller (it is not reused).
func (g *InputGate) ReadRecord() ([]byte, error) {
	g.start.Do(func() {
		ch := make(chan inRec, 64)
		g.recs = ch
		var wg sync.WaitGroup
		for _, l := range g.links {
			wg.Add(1)
			go func() {
				defer wg.Done()
				g.pump(l, ch)
			}()
		}
		go func() {
			wg.Wait()
			close(ch)
		}()
	})
	r, ok := <-g.recs
	if !ok {
		return nil, io.EOF
	}
	return r.rec, r.err
}

// forEach passes each record to fn until the gate ends, and returns the
// first error of the gate or of fn.
func (g *InputGate) forEach(fn func([]byte) error) error {
	for {
		rec, err := g.ReadRecord()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
}

// pump opens one producer's link lazily, so a blocking transport (file
// staging, TCP accept) does not stall task startup, and forwards its records
// to ch until EOF, an error or abandon. Whichever way it returns, it closes
// what it opened.
func (g *InputGate) pump(l link, ch chan<- inRec) {
	send := func(r inRec) bool {
		select {
		case ch <- r:
			return true
		case <-g.stop:
			return false
		}
	}
	rc, err := l.openReader()
	if err != nil {
		send(inRec{err: err})
		return
	}
	defer rc.Close()
	r, err := wrapReader(rc, g.spec)
	if err != nil {
		send(inRec{err: err})
		return
	}
	if sr, ok := r.(*stream.Reader); ok {
		defer sr.Close() // recycle the decompressor's block buffers
	}
	rr := NewRecordReader(r)
	defer rr.Close() // recycle the record buffer if we bail before EOF
	for {
		rec, err := rr.ReadRecord()
		if err == io.EOF {
			return
		}
		if err != nil {
			send(inRec{err: err})
			return
		}
		if !send(inRec{rec: append([]byte(nil), rec...)}) {
			return
		}
	}
}

// OutputGate distributes records round-robin over all consumer subtasks of
// one edge.
type OutputGate struct {
	links []outLink // one per consumer subtask
	next  int
}

// outLink is the producer end of one link: record framing over the optional
// compression stream over the counted transport.
type outLink struct {
	records   *RecordWriter
	wire      *countingWriter
	sw        *stream.Writer // nil when the edge does not compress
	transport io.Closer
}

// WriteRecord emits one record to the next consumer.
func (g *OutputGate) WriteRecord(p []byte) error {
	l := g.links[g.next]
	g.next = (g.next + 1) % len(g.links)
	return l.records.WriteRecord(p)
}

// openOutputGate opens a writer on each of links, one per consumer subtask,
// and layers spec's shaping, compression and record framing on it. On error
// the returned gate holds what was opened, for the caller to close.
func openOutputGate(links []link, spec ChannelSpec) (*OutputGate, error) {
	g := &OutputGate{}
	for _, l := range links {
		transport, err := l.openWriter()
		if err != nil {
			return g, err
		}
		wire := &countingWriter{w: transport}
		w, sw, err := wrapWriter(wire, spec)
		if err != nil {
			transport.Close()
			return g, err
		}
		g.links = append(g.links, outLink{records: NewRecordWriter(w), wire: wire, sw: sw, transport: transport})
	}
	return g, nil
}

// close flushes and closes every link's compression stream, then its
// transport, and returns the first error.
func (g *OutputGate) close() error {
	var first error
	for _, l := range g.links {
		var err error
		if l.sw != nil {
			err = l.sw.Close()
		}
		if cerr := l.transport.Close(); err == nil {
			err = cerr
		}
		if first == nil {
			first = err
		}
	}
	return first
}

// addTo adds what the closed gate carried to s.
func (g *OutputGate) addTo(s *EdgeStats) {
	for _, l := range g.links {
		recs, bytes := l.records.Counters()
		s.Records += recs
		s.AppBytes += bytes
		s.WireBytes += l.wire.n
		if l.sw != nil {
			s.LevelSwitches += l.sw.Stats().LevelSwitches
		}
	}
}

// countingWriter counts transport-level (wire) bytes.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// EdgeStats aggregates what flowed over one edge.
type EdgeStats struct {
	// Records and AppBytes count the record payloads (pre-compression).
	Records  int64
	AppBytes int64
	// WireBytes counts bytes on the transport (post-compression; equals
	// payload plus framing when compression is off).
	WireBytes int64
	// LevelSwitches counts adaptive compression level changes.
	LevelSwitches int64
}

// VertexStats aggregates one vertex's execution.
type VertexStats struct {
	// Subtasks is the vertex's parallelism.
	Subtasks int
	// Busiest and Total are the longest single subtask runtime and the
	// summed runtime across subtasks (Total/Subtasks = mean). Runtime is
	// wall time from start to finish, waits for input and output included,
	// not CPU time.
	Busiest time.Duration
	Total   time.Duration
}

// JobStats summarizes an executed job: one entry per edge label, which edges
// between the same pair of vertices share, and one per vertex name.
type JobStats struct {
	Duration time.Duration
	Edges    map[string]EdgeStats
	Vertices map[string]VertexStats
}

// Engine executes job graphs.
type Engine struct {
	// TempDir hosts file-channel staging files; empty means os.TempDir().
	TempDir string
}

// Execute runs the job to completion. It returns the first task or channel
// error; on error all channels are torn down and every subtask unblocked.
func (e *Engine) Execute(ctx context.Context, g *JobGraph) (*JobStats, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	stats := &JobStats{
		Edges:    make(map[string]EdgeStats, len(g.edges)),
		Vertices: make(map[string]VertexStats, len(g.vertices)),
	}
	for _, v := range g.vertices {
		stats.Vertices[v.name] = VertexStats{Subtasks: v.parallelism}
	}

	meshes := make(map[*Edge][][]link, len(g.edges)) // [producer][consumer]
	var allLinks []link
	defer func() {
		for _, l := range allLinks {
			if fl, ok := l.(*fileLink); ok {
				fl.cleanup()
			}
		}
	}()
	for _, edge := range g.edges {
		stats.Edges[edge.Label()] = EdgeStats{}
		np, nc := edge.from.parallelism, edge.to.parallelism
		mesh := make([][]link, np)
		for pi := range mesh {
			mesh[pi] = make([]link, nc)
			for ci := range mesh[pi] {
				l, err := e.newLink(edge, pi, ci)
				if err != nil {
					abortAll(allLinks, err)
					return nil, err
				}
				mesh[pi][ci] = l
				allLinks = append(allLinks, l)
			}
		}
		meshes[edge] = mesh
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex // guards firstErr and stats
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
		abortAll(allLinks, err)
	}
	// account adds one finished subtask's runtime and output totals.
	account := func(v *Vertex, elapsed time.Duration, outputs []*OutputGate) {
		mu.Lock()
		defer mu.Unlock()
		vs := stats.Vertices[v.name]
		vs.Total += elapsed
		vs.Busiest = max(vs.Busiest, elapsed)
		stats.Vertices[v.name] = vs
		for i, gate := range outputs {
			label := v.outputs[i].Label()
			es := stats.Edges[label]
			gate.addTo(&es)
			stats.Edges[label] = es
		}
	}

	// Propagate external cancellation into the channel mesh.
	stopWatch := context.AfterFunc(ctx, func() { fail(ctx.Err()) })

	for _, v := range g.vertices {
		for sub := 0; sub < v.parallelism; sub++ {
			wg.Add(1)
			go func(v *Vertex, sub int) {
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil {
						fail(fmt.Errorf("nephele: task %s[%d] panicked: %v", v.name, sub, r))
					}
				}()
				subStart := time.Now()
				outputs, err := runSubtask(runCtx, g, v, sub, meshes)
				if err != nil {
					fail(fmt.Errorf("nephele: task %s[%d]: %w", v.name, sub, err))
					return
				}
				account(v, time.Since(subStart), outputs)
			}(v, sub)
		}
	}
	wg.Wait()
	stopWatch()

	mu.Lock()
	err := firstErr
	mu.Unlock()
	if err != nil {
		return nil, err
	}
	stats.Duration = time.Since(start)
	return stats, nil
}

func (e *Engine) newLink(edge *Edge, pi, ci int) (link, error) {
	switch edge.spec.Type {
	case Network:
		return newNetLink()
	case File:
		return newFileLink(e.TempDir, fmt.Sprintf("%s-%d-%d", edge.from.name, pi, ci))
	default:
		return nil, fmt.Errorf("nephele: unknown channel type %v", edge.spec.Type)
	}
}

// runSubtask wires one subtask's gates, runs its task, then flushes and
// closes the output side. On success it returns the closed output gates,
// one per v.outputs entry, for their totals.
func runSubtask(ctx context.Context, g *JobGraph, v *Vertex, sub int, meshes map[*Edge][][]link) ([]*OutputGate, error) {
	tc := &TaskContext{
		Job:         g.name,
		Vertex:      v.name,
		Subtask:     sub,
		Parallelism: v.parallelism,
		ctx:         ctx,
	}

	for _, edge := range v.inputs {
		links := make([]link, edge.from.parallelism)
		for pi := range links {
			links[pi] = meshes[edge][pi][sub]
		}
		tc.inputs = append(tc.inputs, &InputGate{links: links, spec: edge.spec, stop: make(chan struct{})})
	}
	// Whatever way the subtask exits, no producer goroutine may stay blocked
	// on an abandoned gate (the task-error path skips the drain below).
	defer func() {
		for _, gate := range tc.inputs {
			gate.abandon()
		}
	}()

	// Output gates open their writers eagerly (TCP dials succeed against
	// the listener backlog even before the consumer accepts).
	var runErr error
	for _, edge := range v.outputs {
		gate, err := openOutputGate(meshes[edge][sub], edge.spec)
		tc.outputs = append(tc.outputs, gate)
		if err != nil {
			runErr = err
			break
		}
	}

	if runErr == nil {
		runErr = v.factory().Run(tc)
	}
	if runErr == nil {
		// Drain any unread input so producers blocked on full transport
		// buffers can complete: a Nephele channel is always consumed to
		// its end even if the task logic stopped early.
		for _, gate := range tc.inputs {
			gate.forEach(func([]byte) error { return nil })
		}
	}

	// Flush and close outputs even on error so consumers unblock; the
	// engine's abort path handles hard failures.
	for _, gate := range tc.outputs {
		if err := gate.close(); err != nil && runErr == nil {
			runErr = err
		}
	}
	if runErr != nil {
		return nil, runErr
	}
	return tc.outputs, nil
}

func abortAll(links []link, err error) {
	for _, l := range links {
		l.abort(err)
	}
}
