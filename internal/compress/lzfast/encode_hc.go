package lzfast

// This file holds the hash-chain encoder behind HC (paper level MEDIUM):
// the same token format as the fast parse, written by the same emitters
// and read by the same decoder, with the match at each position chosen
// from a chain of earlier positions that share its first bytes instead of
// from one table slot. docs/performance.md, "The hash-chain parse", has the
// measurements behind every constant here.

import (
	"math/bits"
	"sync"
)

const (
	// hcHashLog is the log2 size of the head table; blocks of 8 KB or less
	// use, and clear, only part of it (hcHashBits).
	hcHashLog = 16

	// hcDefaultDepth and hcRefund are HC{}'s operating point: a row of the
	// committed sweep (BenchmarkHCSweep).
	hcDefaultDepth = 12
	hcRefund       = 4

	// hcWideKeyMin is the block length from which chains are keyed on 5
	// bytes rather than 4. A 5-byte key keeps the common 4-byte prefixes
	// of prose from filling every chain, which is worth more than the
	// 4-byte matches it no longer sees once a block is long enough to
	// hold longer repeats; in a shorter block 4-byte matches are most of
	// what there is.
	hcWideKeyMin = 16 << 10

	// hcNiceLen ends a search, and forgoes the lazy step, once a match is
	// this long: a longer one saves an extension byte per 255 at best.
	hcNiceLen = 128
	// A match of hcSparseLen or more is mostly run or long repeat: its
	// interior joins the chains only every hcSparseStep-th position, its
	// last hcSparseTail positions all do.
	hcSparseLen  = 64
	hcSparseStep = 8
	hcSparseTail = 8

	// hcSkipShift controls HC's skip acceleration: after 1<<hcSkipShift
	// consecutive positions without a match the step starts growing,
	// bounding worst-case time on high-entropy runs. It is two notches more
	// conservative than the fast path's shift (7 vs 5) because HC's job is
	// ratio: skipped positions are neither probed nor inserted, so ramping
	// too early would cost matches on barely-compressible data.
	hcSkipShift = 7
)

// hcParams is the operating point of one compressHC call.
type hcParams struct {
	// depth is the number of candidates a search may visit without
	// lengthening its match; refund is the number of visits it gets back
	// each time one does. refund 0 makes depth a flat bound.
	depth, refund int
	// keyShift drops all but the key's bytes from a 64-bit load; hashShift
	// keeps the head-table bits of the product.
	keyShift, hashShift uint
}

// hcPoint is the operating point for an n-byte block: depth and refund as
// given, chains keyed on keyBytes bytes, the head table sized to the block.
func hcPoint(depth, refund, keyBytes, n int) hcParams {
	return hcParams{
		depth:     depth,
		refund:    refund,
		keyShift:  uint(64 - 8*keyBytes),
		hashShift: 64 - hcHashBits(n),
	}
}

// hcHashBits sizes the head table to the block: four to eight slots per
// position, so that few chains mix keys, up to 1<<hcHashLog.
func hcHashBits(n int) uint {
	return uint(min(bits.Len(uint(n-1))+2, hcHashLog))
}

// hcKeyBytes is the key width for an n-byte block.
func hcKeyBytes(n int) int {
	if n >= hcWideKeyMin {
		return 5
	}
	return 4
}

// hcState carries the match finder's tables between calls, 384 KB whatever
// the block. head[h] is the last position inserted under hash h; the slots
// in use are cleared per call, and a cleared slot reads as position 0,
// which is therefore never a candidate. chain[p&0xffff] is the distance
// from inserted position p back to the previous position under the same
// hash, 0 where that is outside the offset window. The ring is never
// cleared: a slot is read only by following a link to a position inserted
// in this call and still inside the window, which no later insert can have
// overwritten. So the output is a function of src and the operating point
// alone, never of what the pooled state last held.
type hcState struct {
	head  [1 << hcHashLog]int32
	chain [1 << 16]uint16
	// visits counts the candidates examined in the last call.
	visits int
}

var hcPool = sync.Pool{New: func() any { return new(hcState) }}

func compressHC(dst, src []byte, p hcParams) []byte {
	st := hcPool.Get().(*hcState)
	defer hcPool.Put(st)
	return st.compress(dst, src, p)
}

// link puts position pos at the head of the chain for its key and returns
// the position it displaced: the first candidate of a search at pos.
func (st *hcState) link(src []byte, pos int, p *hcParams) (cand int) {
	// hash5 with the key width a parameter: prime5's low half is odd, so
	// it mixes a 4-byte key as well.
	h := ((kload64(src, pos) << p.keyShift) * prime5) >> p.hashShift
	slot := &st.head[h&(1<<hcHashLog-1)]
	cand = int(*slot)
	*slot = int32(pos)
	// uint16(1<<16) is 0: a link longer than the window is no link.
	st.chain[pos&0xffff] = uint16(min(pos-cand, 1<<16))
	return cand
}

// search walks the chain from cand for the longest match at position i that
// is longer than floor (at least minMatch-1), and returns 0, 0 if there is
// none. Ties prefer the smaller offset. A candidate is first checked on the
// four bytes ending where a longer match would have to reach, so one that
// cannot beat the best so far costs one load; only then is it extended from
// its start. budget is spent one per candidate and refunded on progress.
func (st *hcState) search(src []byte, i, cand, floor, budget, refund int) (mlen, off int) {
	limit := len(src) - i
	if floor >= limit {
		return 0, 0
	}
	best := floor
	tail := kload32(src, i+best-3)
	// A candidate lies inside the offset window and after position 0.
	window := uint(min(i-1, maxOffset))
	visits := 0
	for {
		dist := i - cand
		if uint(dist-1) >= window {
			break
		}
		visits++
		if kload32(src, cand+best-3) == tail {
			if l := kmatchLen(src, cand, i); l > best {
				best, off = l, dist
				if l >= hcNiceLen || l == limit {
					break
				}
				tail = kload32(src, i+best-3)
				budget += refund
			}
		}
		budget--
		d := int(st.chain[cand&0xffff])
		if d == 0 || budget <= 0 {
			break
		}
		cand -= d
	}
	st.visits += visits
	if off == 0 {
		return 0, 0
	}
	return best, off
}

func (st *hcState) compress(dst, src []byte, p hcParams) []byte {
	st.visits = 0
	// The hash loads 8 bytes, so the scan stops 8 bytes short of the end;
	// the tail is emitted as literals.
	mfLimit := len(src) - 8
	dst = reserve(dst, len(src))
	out, d := dst[:cap(dst)], len(dst)
	if mfLimit < 1 {
		return dst[:emitFastFinal(out, d, src, 0)]
	}
	clear(st.head[:1<<(64-p.hashShift)])
	// The lazy search only has to beat a match already in hand.
	lazyDepth := max(p.depth/2, 1)

	anchor := 0
	i := 0
	misses := 0
	for i <= mfLimit {
		// Most positions of a short or incompressible block displace a
		// cleared slot, and have nothing to search.
		mlen, moff := 0, 0
		if cand := st.link(src, i, &p); cand != 0 {
			mlen, moff = st.search(src, i, cand, minMatch-1, p.depth, p.refund)
		}
		if mlen == 0 {
			misses++
			i += 1 + misses>>hcSkipShift
			continue
		}
		misses = 0
		// Lazy matching: while the next position holds a match at least
		// two bytes longer, this position becomes a literal and that
		// match is carried forward as the one to beat.
		next := i + 1
		for mlen < hcNiceLen && next <= mfLimit {
			nlen, noff := st.search(src, next, st.link(src, next, &p), mlen+1, lazyDepth, p.refund)
			next++
			if nlen == 0 {
				break
			}
			i++
			mlen, moff = nlen, noff
		}
		d = emitFast(out, d, src, anchor, i, moff, mlen)
		end := i + mlen
		last := min(end-1, mfLimit)
		if mlen >= hcSparseLen {
			dense := min(end-hcSparseTail, last+1)
			for ; next < dense; next += hcSparseStep {
				st.link(src, next, &p)
			}
			next = dense
		}
		for ; next <= last; next++ {
			st.link(src, next, &p)
		}
		i = end
		anchor = i
	}
	return dst[:emitFastFinal(out, d, src, anchor)]
}
