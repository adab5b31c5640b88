// Package block is the data plane's buffer arena: a size-classed,
// sync.Pool-backed allocator for the byte buffers that carry every 128 KB
// block, frame, and record through the stream, tunnel, and Nephele layers.
//
// The paper's decision model adapts on the observed per-window application
// rate (Section III-A), so allocator and GC churn on the per-block hot path
// directly distorts the signal Algorithm 1 reacts to. The arena removes the
// per-block make([]byte, ...) cost: steady-state stream traffic recycles a
// small working set of pooled buffers instead of allocating fresh ones.
//
// # Lifecycle contract
//
// A Buf has exactly one owner at any time. Get transfers ownership to the
// caller; Release transfers it back to the arena. Ownership moves across
// goroutines and package boundaries (e.g. a stream.Writer hands a full
// block Buf to its compression pipeline, which releases it after the frame
// reaches the wire); whoever holds a Buf last releases it exactly once.
// After Release the buffer's backing array may be handed to any other
// goroutine — a released Buf must not be read, written, or released again.
// Double releases panic when detected (best effort, see Release).
//
// The contents of a freshly acquired Buf are NOT zeroed; callers that need
// zeroed memory must clear it themselves.
//
// docs/performance.md documents the per-package ownership rules; the
// blocktest subpackage provides a leak tracker that test suites use to
// assert every acquired Buf is released.
package block

import "sync"

// classSizes are the arena's size classes in ascending order. They are
// tailored to the data plane's block geometry rather than powers of two:
//
//   - 4 KB: record headers, small records, miscellaneous scratch
//   - 16 KB / 64 KB: typical records and copy buffers
//   - 160 KB: the hot class — a 128 KB block (stream.DefaultBlockSize)
//     plus frame header and worst-case codec expansion (see
//     stream.maxFrameSize)
//   - 512 KB .. 8 MB: oversized application blocks and records
//   - 20 MB: a MaxBlockSize (16 MB) frame with worst-case expansion
//
// Requests larger than the top class fall back to exact, unpooled
// allocations that are dropped on Release.
var classSizes = [...]int{
	4 << 10,
	16 << 10,
	64 << 10,
	160 << 10,
	512 << 10,
	2 << 20,
	8 << 20,
	20 << 20,
}

const numClasses = len(classSizes)

// unpooled marks a Buf whose backing array came straight from the heap
// because the request exceeded the largest class.
const unpooled = -1

// Buf is one pooled buffer. B is the caller-visible slice: callers append
// to it, re-slice it, and hand it across goroutines freely while they own
// the Buf. If an append outgrows the backing array, the grown array simply
// travels with the Buf back into its pool (classes are minimum capacities).
type Buf struct {
	// B is the buffer contents. Get returns len(B) == 0; GetLen returns
	// len(B) == n. Capacity is at least the requested size.
	B []byte

	class int // size-class index, or unpooled

	// mu guards released. A mutex (not an atomic) keeps the double-release
	// panic reliable in the common same-goroutine case and makes the
	// tracking bookkeeping atomic with the state change.
	mu       sync.Mutex
	released bool

	// seq distinguishes incarnations of a recycled Buf for the leak
	// tracker (pointer identity alone is ambiguous across pool cycles);
	// 0 when the Buf was acquired with tracking off.
	seq uint64
}

// pools holds one sync.Pool per size class. Pool entries are *Buf with
// cap(B) >= the class size.
var pools [numClasses]sync.Pool

func init() {
	for i := range pools {
		size := classSizes[i]
		class := i
		pools[i].New = func() any {
			return &Buf{B: make([]byte, 0, size), class: class, released: true}
		}
	}
}

// classFor returns the smallest class index whose size covers n, or
// unpooled if n exceeds the largest class.
func classFor(n int) int {
	for i, size := range classSizes {
		if n <= size {
			return i
		}
	}
	return unpooled
}

// Get returns a Buf with len(B) == 0 and cap(B) >= n. The caller owns the
// Buf until it calls Release.
func Get(n int) *Buf {
	if n < 0 {
		panic("block: negative buffer size")
	}
	class := classFor(n)
	var b *Buf
	if class == unpooled {
		b = &Buf{B: make([]byte, 0, n), class: unpooled}
	} else {
		b = pools[class].Get().(*Buf)
		b.B = b.B[:0]
	}
	b.released = false
	arenaGets.Add(1)
	trackGet(b)
	return b
}

// GetLen returns a Buf with len(B) == n and cap(B) >= n. The contents are
// not zeroed.
func GetLen(n int) *Buf {
	b := Get(n)
	b.B = b.B[:n]
	return b
}

// Release returns the Buf to the arena. The caller must not touch the Buf
// (or any slice of its backing array) afterwards. Releasing the same Buf
// twice panics; the check is best-effort — if the Buf was already recycled
// to another owner, the second release corrupts that owner instead, which
// the blocktest leak tracker catches in tests.
func (b *Buf) Release() {
	b.mu.Lock()
	if b.released {
		b.mu.Unlock()
		panic("block: Buf released twice")
	}
	b.released = true
	b.mu.Unlock()
	arenaReleases.Add(1)
	trackRelease(b)
	if b.class == unpooled {
		arenaDiscards.Add(1)
		return // dropped; the GC reclaims oversized one-offs
	}
	if cap(b.B) < classSizes[b.class] {
		// The owner swapped in a smaller backing array (e.g. kept a
		// decompressor's output slice). Pooling it would poison the class
		// invariant cap(B) >= class size, so drop this Buf instead.
		arenaDiscards.Add(1)
		return
	}
	b.B = b.B[:0]
	pools[b.class].Put(b)
}
