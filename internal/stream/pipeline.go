package stream

import (
	"sync"

	"adaptio/internal/block"
)

// pipeline is the worker-pool mode of the Writer (WriterConfig.Parallelism
// > 1): blocks run through Writer.encode concurrently, then through
// Writer.emit in submission order from one flusher goroutine. Compression
// dominates the stream layer's CPU cost, so on multicore senders the pool
// multiplies throughput without changing the wire format (frames remain
// strictly ordered and self-contained).
//
// Buffer lifecycle: submit transfers ownership of the block's arena buffer
// to the pipeline. For a compressed frame the worker releases it right
// after encoding into a fresh arena buffer; for a stored-raw frame it
// travels on as the frame's tail piece. The flusher releases whatever
// buffers each frame still holds once emit returns — written, or refused
// after an earlier write error. stop drains everything in flight, so by the
// time it returns no pipeline-owned buffer is outstanding.
type pipeline struct {
	w    *Writer
	jobs chan compressJob

	mu        sync.Mutex
	cond      *sync.Cond
	done      map[uint64]encodedFrame // encoded but not yet emitted
	nextSub   uint64                  // next sequence number to assign
	nextWrite uint64                  // next sequence number to emit
	err       error                   // first emit error
	stopped   bool

	wg sync.WaitGroup
}

func newPipeline(w *Writer, workers int) *pipeline {
	p := &pipeline{
		w: w,
		// submit admits this many blocks between the caller and the wire:
		// per worker two queued, one being encoded and one waiting its turn
		// at the flusher. A slow destination therefore blocks the caller
		// instead of piling up finished frames, and a write error reaches
		// the caller within that many blocks. The channel never blocks.
		jobs: make(chan compressJob, 4*workers),
		done: make(map[uint64]encodedFrame),
	}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(workers + 1)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	go p.flusher()
	return p
}

func (p *pipeline) worker() {
	defer p.wg.Done()
	for job := range p.jobs {
		f := p.w.encode(job, block.Get(maxFrameSize(len(job.block.B))))
		if f.tail == nil {
			job.block.Release()
		}
		p.mu.Lock()
		p.done[f.seq] = f
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}

// flusher emits finished frames in sequence order.
func (p *pipeline) flusher() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for {
			if _, ok := p.done[p.nextWrite]; ok {
				break
			}
			if p.stopped && p.nextWrite == p.nextSub {
				p.mu.Unlock()
				return
			}
			p.cond.Wait()
		}
		f := p.done[p.nextWrite]
		delete(p.done, p.nextWrite)
		p.mu.Unlock()

		err := p.w.emit(f)
		f.frame.Release()
		if f.tail != nil {
			f.tail.Release()
		}

		p.mu.Lock()
		p.nextWrite++
		p.err = err // emit's error is sticky, so this only ever latches
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}

// submit enqueues one block, whose arena buffer the pipeline takes
// ownership of, waiting while cap(jobs) blocks are already in flight. It
// returns the emit error observed so far, if any.
func (p *pipeline) submit(job compressJob) error {
	p.mu.Lock()
	for p.nextSub-p.nextWrite >= uint64(cap(p.jobs)) {
		p.cond.Wait()
	}
	job.seq = p.nextSub
	p.nextSub++
	err := p.err
	p.mu.Unlock()
	p.jobs <- job
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

// stop drains and shuts the goroutines down. The pipeline cannot be used
// afterwards.
func (p *pipeline) stop() {
	p.drain()
	p.mu.Lock()
	p.stopped = true
	p.cond.Broadcast()
	p.mu.Unlock()
	close(p.jobs)
	p.wg.Wait()
}
