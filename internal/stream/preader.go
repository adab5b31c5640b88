package stream

import (
	"io"
	"sync"

	"adaptio/internal/block"
)

// readPool is the worker-pool mode of the Reader: one goroutine reads frames
// off the wire in order, the workers run rawFrame.decode on them
// concurrently, and next hands the blocks back in wire order. Ownership of
// the arena buffers flows wire goroutine -> worker -> next; stop releases
// whatever is still in flight, and no goroutine outlives it.
type readPool struct {
	// order carries one slot per frame, in wire order; the frame's worker
	// delivers into the slot. Its capacity bounds the frames in flight.
	order chan chan decodedFrame
	quit  chan struct{}
	wg    sync.WaitGroup
}

// decodedFrame is one frame after the decode step: the raw block, or the
// *FrameError that ends the stream.
type decodedFrame struct {
	header
	blk *block.Buf // nil on error
	err error
}

type decodeJob struct {
	rawFrame
	slot chan decodedFrame
}

func startReadPool(frames *frameSource, workers int) *readPool {
	// Two frames per worker keep the pool busy while Read drains a block.
	p := &readPool{order: make(chan chan decodedFrame, 2*workers), quit: make(chan struct{})}
	// A slot is taken from the moment it enters order until next has
	// received from it: at most cap(order) queued plus the one next holds, so
	// the slot used cap(order)+2 frames ago is always free again.
	ring := make([]chan decodedFrame, cap(p.order)+2)
	for i := range ring {
		ring[i] = make(chan decodedFrame, 1)
	}
	// Every queued job holds a slot, so a send on jobs never blocks.
	jobs := make(chan decodeJob, len(ring))

	p.wg.Add(workers + 1)
	go func() {
		defer p.wg.Done()
		defer close(jobs)
		defer close(p.order)
		for seq := 0; ; seq++ {
			f, err := frames.next(nil)
			if err == io.EOF {
				return
			}
			slot := ring[seq%len(ring)]
			select {
			case p.order <- slot:
			case <-p.quit:
				if err == nil {
					f.payload.Release()
				}
				return
			}
			if err != nil {
				slot <- decodedFrame{err: err}
				return
			}
			jobs <- decodeJob{f, slot}
		}
	}()
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			for job := range jobs {
				blk, spare, err := job.decode(nil)
				if spare != nil {
					spare.Release()
				}
				job.slot <- decodedFrame{job.header, blk, err}
			}
		}()
	}
	return p
}

// next returns the next frame in wire order: io.EOF after the last one, or
// the *FrameError of the first bad one.
func (p *readPool) next() (decodedFrame, error) {
	slot, ok := <-p.order
	if !ok {
		return decodedFrame{}, io.EOF
	}
	d := <-slot
	return d, d.err
}

// stop ends the pool: the wire goroutine quits at its next frame boundary,
// every block still in flight is released, and all goroutines have exited
// when it returns.
func (p *readPool) stop() {
	close(p.quit)
	for slot := range p.order {
		if d := <-slot; d.blk != nil {
			d.blk.Release()
		}
	}
	p.wg.Wait()
}
