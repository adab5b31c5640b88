package stream

import "sync"

// The block pipeline is the Writer's multi-core mode: cut blocks run through
// Writer.encode concurrently and through Writer.emit in the order they were
// cut. Compression dominates the stream layer's CPU cost, so on multicore
// senders it multiplies throughput without changing the wire format (frames
// stay strictly ordered and self-contained). It has two halves. The
// EncodePool is the workers; it knows nothing about order or the wire. The
// pipeline is what one Writer adds to them: sequence numbers, the frames
// encoded ahead of their turn, and the flusher goroutine that emits them. A
// pool is private to one Writer (NewParallelWriter) or shared by many
// (WriterConfig.Pool); the code is the same, only who stops the workers
// differs.
//
// Buffer lifecycle: submit transfers ownership of the block's arena buffer
// to the pipeline. For a compressed frame the worker releases it right
// after encoding into a fresh arena buffer; for a stored-raw frame it
// travels on as the frame's tail piece. Whoever emits a frame releases the
// buffers it still holds once emit returns — written, or refused after an
// earlier write error. stop drains everything in flight, so by the time it
// returns no pipeline-owned buffer is outstanding.

// sharedInFlight is how many blocks a Writer on a shared EncodePool may have
// between the cut and the wire. It is a constant, not a multiple of the
// worker count, so that what a connection can pin while its wire is stalled
// (this many blocks and their frames, about 2.3 MB at the default block
// size) does not grow with the machine: an endpoint's worst case is
// connections x sharedInFlight, whatever GOMAXPROCS is. Eight keeps two
// workers fed with the queue depth a private two-worker pool has.
const sharedInFlight = 8

// EncodePool is a set of goroutines that encode blocks for any number of
// Writers (WriterConfig.Pool). A worker only ever compresses: it never
// touches a destination, so a Writer whose destination has stalled holds no
// worker, only its own bounded share of blocks in flight.
type EncodePool struct {
	jobs chan poolJob
	wg   sync.WaitGroup
}

// poolJob is a block on its way to a worker, and the pipeline that wants the
// frame back.
type poolJob struct {
	compressJob
	from *pipeline
}

// NewEncodePool starts workers encode goroutines. Close stops them.
func NewEncodePool(workers int) *EncodePool {
	// Per worker two blocks queued, one being encoded and one waiting its
	// turn at a flusher: a private pipeline admits exactly this many, so its
	// sends never block; Writers sharing the pool wait here once the workers
	// are saturated.
	e := &EncodePool{jobs: make(chan poolJob, 4*workers)}
	e.wg.Add(workers)
	for range workers {
		go e.worker()
	}
	return e
}

// Close stops the workers and waits for them. Every Writer using the pool
// must have been closed first.
func (e *EncodePool) Close() {
	close(e.jobs)
	e.wg.Wait()
}

func (e *EncodePool) worker() {
	defer e.wg.Done()
	for job := range e.jobs {
		p := job.from
		f := p.w.encodeOwned(job.compressJob)
		p.mu.Lock()
		p.put(f)
		p.mu.Unlock()
	}
}

// pipeline is one Writer's half of the block pipeline.
type pipeline struct {
	w       *Writer
	workers *EncodePool
	private bool // workers serve this pipeline alone; stop closes them

	mu   sync.Mutex
	cond sync.Cond
	// ring[seq%len] holds frame seq from the moment it is encoded until the
	// flusher takes it; frame == nil marks an empty slot. Its length is the
	// number of blocks submit admits between the caller and the wire, so a
	// slow destination blocks the caller instead of piling up finished
	// frames, and a write error reaches the caller within that many blocks.
	ring       []encodedFrame
	sharedRing [sharedInFlight]encodedFrame // ring's storage on a shared pool: no allocation per connection
	nextSub    uint64                       // next sequence number to assign
	nextWrite  uint64                       // next sequence number to emit
	err        error                        // first emit error seen by the flusher
	stopped    bool

	flusherDone sync.WaitGroup
}

func newPipeline(w *Writer, workers *EncodePool, private bool) *pipeline {
	p := &pipeline{w: w, workers: workers, private: private}
	p.ring = p.sharedRing[:]
	if private {
		p.ring = make([]encodedFrame, cap(workers.jobs))
	}
	p.cond.L = &p.mu
	p.flusherDone.Add(1)
	go p.flusher()
	return p
}

// flusher emits finished frames in sequence order.
func (p *pipeline) flusher() {
	defer p.flusherDone.Done()
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		slot := &p.ring[p.nextWrite%uint64(len(p.ring))]
		for slot.frame == nil {
			if p.stopped {
				return // stop drained first: nothing is in flight
			}
			p.cond.Wait()
		}
		f := *slot
		*slot = encodedFrame{}
		p.mu.Unlock()

		err := p.w.emit(f)
		f.release()

		p.mu.Lock()
		p.nextWrite++
		p.err = err // emit's error is sticky, so this only ever latches
		p.cond.Broadcast()
	}
}

// put stores an encoded frame in its ring slot. Callers hold p.mu.
func (p *pipeline) put(f encodedFrame) {
	p.ring[f.seq%uint64(len(p.ring))] = f
	if f.seq == p.nextWrite {
		p.cond.Broadcast() // the flusher waits for this frame and no other
	}
}

// admit waits while the ring is full, then assigns the next sequence number.
// It returns the emit error observed so far, if any. Callers hold p.mu.
func (p *pipeline) admit() (seq uint64, err error) {
	for p.nextSub-p.nextWrite >= uint64(len(p.ring)) {
		p.cond.Wait()
	}
	seq = p.nextSub
	p.nextSub++
	return seq, p.err
}

// submit hands one block, whose arena buffer the pipeline takes ownership
// of, to the workers, waiting while the ring is full.
func (p *pipeline) submit(job compressJob) error {
	p.mu.Lock()
	seq, err := p.admit()
	p.mu.Unlock()
	job.seq = seq
	p.workers.jobs <- poolJob{job, p}
	return err
}

// pass takes a frame the caller encoded itself — a stored-raw frame is a
// header and a CRC, less work than the two goroutine hand-offs a worker
// costs — and puts it on the wire in sequence: right here when nothing is in
// flight, through the flusher's ring otherwise. The pipeline owns the
// frame's buffers either way.
func (p *pipeline) pass(f encodedFrame) error {
	p.mu.Lock()
	if p.nextSub == p.nextWrite {
		// The flusher is parked and stays parked: only this goroutine
		// submits. emit and its sticky error are ours for the moment.
		p.mu.Unlock()
		err := p.w.emit(f)
		f.release()
		return err
	}
	seq, err := p.admit()
	f.seq = seq
	p.put(f)
	p.mu.Unlock()
	return err
}

// drain blocks until every submitted frame has been through emit and
// returns the emit error, if any.
func (p *pipeline) drain() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.nextWrite < p.nextSub {
		p.cond.Wait()
	}
	return p.err
}

// stop drains, ends the flusher and, for a private pool, the workers. The
// pipeline cannot be used afterwards.
func (p *pipeline) stop() {
	p.drain()
	p.mu.Lock()
	p.stopped = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.flusherDone.Wait()
	if p.private {
		p.workers.Close()
	}
}
