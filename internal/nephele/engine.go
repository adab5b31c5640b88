package nephele

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"adaptio/internal/obs"
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
	writers []*RecordWriter
	next    int
	closers []func() error

	// Transport accounting, read into EdgeStats once the gate is closed.
	wires    []*countingWriter
	switches []func() int64
}

// WriteRecord emits one record to the next consumer.
func (g *OutputGate) WriteRecord(p []byte) error {
	w := g.writers[g.next]
	g.next = (g.next + 1) % len(g.writers)
	return w.WriteRecord(p)
}

// openOutputGate opens a writer on each of links, one per consumer subtask,
// and layers spec's shaping, compression and record framing on it. On error
// the returned gate holds what was opened, for the caller to close.
func openOutputGate(links []link, spec ChannelSpec) (*OutputGate, error) {
	g := &OutputGate{}
	for _, l := range links {
		wc, err := l.openWriter()
		if err != nil {
			return g, err
		}
		counter := &countingWriter{w: wc}
		wrapped, closeFn, switches, err := wrapWriter(&writeCloserPair{counter, wc}, spec)
		if err != nil {
			wc.Close()
			return g, err
		}
		g.writers = append(g.writers, NewRecordWriter(wrapped))
		g.closers = append(g.closers, closeFn)
		g.wires = append(g.wires, counter)
		g.switches = append(g.switches, switches)
	}
	return g, nil
}

func (g *OutputGate) close() error {
	var first error
	for _, c := range g.closers {
		if err := c(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// stats sums what the gate carried.
func (g *OutputGate) stats() EdgeStats {
	var s EdgeStats
	for _, w := range g.writers {
		recs, bytes := w.Counters()
		s.Records += recs
		s.AppBytes += bytes
	}
	for _, c := range g.wires {
		s.WireBytes += c.n
	}
	for _, fn := range g.switches {
		s.LevelSwitches += fn()
	}
	return s
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
	// summed runtime across subtasks (Total/Subtasks = mean).
	Busiest time.Duration
	Total   time.Duration
}

// JobStats summarizes an executed job. Edges and Vertices are derived from
// the per-job obs registry (Metrics) when Execute returns; the registry
// itself stays available for JSON export or further inspection.
type JobStats struct {
	Duration time.Duration
	Edges    map[string]EdgeStats
	Vertices map[string]VertexStats

	// Metrics is the per-job observability registry every counter above is
	// read from: "nephele.edge.<label>.*" per channel,
	// "nephele.vertex.<name>.*" per vertex, and the "nephele.tasks" event
	// log of task state transitions.
	Metrics *obs.Registry
}

// edgeRuntime is the executable form of one edge.
type edgeRuntime struct {
	edge  *Edge
	links [][]link // [producer][consumer]

	// Per-edge obs counters; add is lock-free, so concurrent subtasks
	// account for their share without a shared mutex.
	records       *obs.Counter
	appBytes      *obs.Counter
	wireBytes     *obs.Counter
	levelSwitches *obs.Counter
}

// bindObs resolves the edge's counters under scope ("nephele.edge.<label>").
func (rt *edgeRuntime) bindObs(scope *obs.Scope) {
	es := scope.Scope(rt.edge.Label())
	rt.records = es.Counter("records")
	rt.appBytes = es.Counter("app_bytes")
	rt.wireBytes = es.Counter("wire_bytes")
	rt.levelSwitches = es.Counter("level_switches")
}

func (rt *edgeRuntime) add(s EdgeStats) {
	rt.records.Add(s.Records)
	rt.appBytes.Add(s.AppBytes)
	rt.wireBytes.Add(s.WireBytes)
	rt.levelSwitches.Add(s.LevelSwitches)
}

// snapshot reads the edge's obs counters back into the stats struct.
func (rt *edgeRuntime) snapshot() EdgeStats {
	return EdgeStats{
		Records:       rt.records.Value(),
		AppBytes:      rt.appBytes.Value(),
		WireBytes:     rt.wireBytes.Value(),
		LevelSwitches: rt.levelSwitches.Value(),
	}
}

// vertexObs aggregates one vertex's runtime accounting through atomic obs
// instruments ("nephele.vertex.<name>.*"): Total accumulates via Counter.Add,
// Busiest via Gauge.SetMax.
type vertexObs struct {
	subtasks  *obs.Gauge
	busiestNS *obs.Gauge
	totalNS   *obs.Counter
}

func (vo *vertexObs) snapshot() VertexStats {
	return VertexStats{
		Subtasks: int(vo.subtasks.Value()),
		Busiest:  time.Duration(vo.busiestNS.Value()),
		Total:    time.Duration(vo.totalNS.Value()),
	}
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

	// Per-job registry: every statistic the engine reports is read back from
	// it, so JobStats is a view over obs rather than a parallel bookkeeping
	// scheme. A fresh registry per Execute keeps concurrent jobs independent.
	reg := obs.NewRegistry()
	job := reg.Scope("nephele")
	edgeScope := job.Scope("edge")
	tasks := job.EventLog("tasks", 0)

	runtimes := make(map[*Edge]*edgeRuntime, len(g.edges))
	var allLinks []link
	defer func() {
		for _, l := range allLinks {
			if fl, ok := l.(*fileLink); ok {
				fl.cleanup()
			}
		}
	}()
	for _, edge := range g.edges {
		rt := &edgeRuntime{edge: edge}
		rt.bindObs(edgeScope)
		np, nc := edge.from.parallelism, edge.to.parallelism
		rt.links = make([][]link, np)
		for pi := 0; pi < np; pi++ {
			rt.links[pi] = make([]link, nc)
			for ci := 0; ci < nc; ci++ {
				l, err := e.newLink(edge, pi, ci)
				if err != nil {
					abortAll(allLinks, err)
					return nil, err
				}
				rt.links[pi][ci] = l
				allLinks = append(allLinks, l)
			}
		}
		runtimes[edge] = rt
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	vobs := make(map[string]*vertexObs, len(g.vertices))
	for _, v := range g.vertices {
		vs := job.Scope("vertex").Scope(v.name)
		vo := &vertexObs{
			subtasks:  vs.Gauge("subtasks"),
			busiestNS: vs.Gauge("busiest_ns"),
			totalNS:   vs.Counter("total_ns"),
		}
		vo.subtasks.Set(int64(v.parallelism))
		vobs[v.name] = vo
	}
	fail := func(err error) {
		if err == nil {
			return
		}
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		cancel()
		abortAll(allLinks, err)
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
						tasks.Add("task_failed", fmt.Sprintf("%s[%d]: panic: %v", v.name, sub, r))
						fail(fmt.Errorf("nephele: task %s[%d] panicked: %v", v.name, sub, r))
					}
				}()
				tasks.Add("task_start", fmt.Sprintf("%s[%d]", v.name, sub))
				subStart := time.Now()
				err := runSubtask(runCtx, g, v, sub, runtimes)
				elapsed := time.Since(subStart)
				vo := vobs[v.name]
				vo.totalNS.Add(int64(elapsed))
				vo.busiestNS.SetMax(int64(elapsed))
				if err != nil {
					tasks.Add("task_failed", fmt.Sprintf("%s[%d]: %v", v.name, sub, err))
					fail(fmt.Errorf("nephele: task %s[%d]: %w", v.name, sub, err))
				} else {
					tasks.Add("task_done", fmt.Sprintf("%s[%d]", v.name, sub))
				}
			}(v, sub)
		}
	}
	wg.Wait()
	stopWatch()

	errMu.Lock()
	err := firstErr
	errMu.Unlock()
	if err != nil {
		return nil, err
	}

	stats := &JobStats{
		Duration: time.Since(start),
		Edges:    map[string]EdgeStats{},
		Vertices: map[string]VertexStats{},
		Metrics:  reg,
	}
	for _, rt := range runtimes {
		stats.Edges[rt.edge.Label()] = rt.snapshot()
	}
	for name, vo := range vobs {
		stats.Vertices[name] = vo.snapshot()
	}
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
// closes the output side and accounts edge statistics.
func runSubtask(ctx context.Context, g *JobGraph, v *Vertex, sub int, runtimes map[*Edge]*edgeRuntime) error {
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
			links[pi] = runtimes[edge].links[pi][sub]
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
		gate, err := openOutputGate(runtimes[edge].links[sub], edge.spec)
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
			for {
				if _, err := gate.ReadRecord(); err != nil {
					break
				}
			}
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
		return runErr
	}
	for i, gate := range tc.outputs {
		runtimes[v.outputs[i]].add(gate.stats())
	}
	return nil
}

// writeCloserPair writes through w and closes c.
type writeCloserPair struct {
	w io.Writer
	c io.Closer
}

func (p *writeCloserPair) Write(b []byte) (int, error) { return p.w.Write(b) }
func (p *writeCloserPair) Close() error                { return p.c.Close() }

func abortAll(links []link, err error) {
	for _, l := range links {
		l.abort(err)
	}
}
