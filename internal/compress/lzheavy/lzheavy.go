// Package lzheavy implements a from-scratch LZ77 compressor with an adaptive
// binary range coder, standing in for LZMA at the paper's HEAVY compression
// level (Section III-B). Like LZMA it combines a large-window match finder
// with context-modeled arithmetic coding of literals, match lengths and
// distance slots, plus a "repeat last distance" shortcut. It is deliberately
// much slower than lzfast and achieves a better compression ratio — the
// time/compression ordering the decision algorithm depends on.
//
// # Wire format
//
// A block is a raw range-coder bitstream over the following symbol grammar
// (all probabilities are 11-bit adaptive counters, fresh per block, so blocks
// are fully self-contained):
//
//	symbol  := isMatch(ctx=prevOp) ? match : literal
//	literal := 8 bits, bit-tree, context = top 2 bits of previous byte
//	match   := isRep ? repMatch : newMatch
//	newMatch:= length(lenM) distSlot directBits    // pushes onto rep queue
//	repMatch:= isRepG0 ? (isRep0Long ? length(lenR) : <len 1 short-rep>)
//	         : isRepG1 ? length(lenR)              // distance = rep1
//	         : isRepG2 ? length(lenR)              // distance = rep2
//	         :           length(lenR)              // distance = rep3
//	           (used rep distance moves to the queue front, as in LZMA)
//	length  := choice1/choice2 split into 3-bit (2..9), 5-bit (10..41)
//	           and 8-bit (42..297) bit-trees; lenM and lenR are separate
//	           adaptive coders
//	distSlot:= 6-bit bit-tree; slots >= 4 carry (slot/2 - 1) direct bits
//
// The decoder stops after producing exactly the declared decompressed size;
// there is no end-of-stream marker.
package lzheavy

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"

	"adaptio/internal/compress"
)

const (
	minMatch    = 3   // minimum length for a fresh-distance match
	minRepMatch = 2   // minimum length for a rep match (short-rep is 1)
	lenBase     = 2   // lowest value the length coders encode
	maxMatchLen = 297 // lenBase + 40 + 255, the top of the 8-bit length tree

	probBits  = 11
	probInit  = 1 << (probBits - 1) // 1024
	moveBits  = 5
	topValue  = 1 << 24
	hashLog   = 16
	litCtxTop = 4 // literal contexts: top 2 bits of the previous byte
)

type prob = uint16

// Codec is the HEAVY compressor. Depth bounds the hash-chain search; the
// zero value uses a default depth of 128.
type Codec struct {
	Depth int
}

// ID implements compress.Codec.
func (Codec) ID() uint8 { return compress.IDLZHeavy }

// Name implements compress.Codec.
func (Codec) Name() string { return "lzheavy" }

// lenProbs is one adaptive length coder (LZMA keeps separate coders for
// fresh matches and rep matches).
type lenProbs struct {
	choice1 prob
	choice2 prob
	low     [8]prob
	mid     [32]prob
	high    [256]prob
}

func (l *lenProbs) init() {
	l.choice1, l.choice2 = probInit, probInit
	fill := func(a []prob) {
		for i := range a {
			a[i] = probInit
		}
	}
	fill(l.low[:])
	fill(l.mid[:])
	fill(l.high[:])
}

// probs holds the complete adaptive model state for one block.
type probs struct {
	isMatch    [2]prob
	isRep      prob // 1: reuse a recent distance
	isRepG0    prob // 0: rep0, 1: consult isRepG1
	isRep0Long prob // 0: single-byte short-rep, 1: coded length
	isRepG1    prob // 0: rep1, 1: consult isRepG2
	isRepG2    prob // 0: rep2, 1: rep3
	lit        [litCtxTop][256]prob
	lenM       lenProbs // fresh-match lengths
	lenR       lenProbs // rep-match lengths
	slot       [64]prob
}

// init resets every adaptive probability to its neutral starting value;
// required before each block (a pooled model carries the previous block's
// adapted state otherwise).
func (p *probs) init() {
	p.isMatch[0], p.isMatch[1] = probInit, probInit
	p.isRep, p.isRepG0, p.isRep0Long = probInit, probInit, probInit
	p.isRepG1, p.isRepG2 = probInit, probInit
	for c := range p.lit {
		for i := range p.lit[c] {
			p.lit[c][i] = probInit
		}
	}
	p.lenM.init()
	p.lenR.init()
	fill := func(a []prob) {
		for i := range a {
			a[i] = probInit
		}
	}
	fill(p.slot[:])
}

// probsPool recycles the ~3.5 KB model state across Compress/Decompress
// calls; newProbs re-initializes it, putProbs returns it.
var probsPool = sync.Pool{New: func() any { return new(probs) }}

func newProbs() *probs {
	p := probsPool.Get().(*probs)
	p.init()
	return p
}

func putProbs(p *probs) { probsPool.Put(p) }

// mfState carries the match finder's hash-head table (256 KB) and chain
// array (4 bytes per input byte) between Compress calls. The head table is
// re-initialized per call; the chain array needs no clearing because
// entries are written before read.
type mfState struct {
	head      [1 << hashLog]int32
	prevChain []int32
}

var mfPool = sync.Pool{New: func() any { return new(mfState) }}

// ---------- range encoder ----------

type rangeEncoder struct {
	low     uint64
	rng     uint32
	cache   byte
	pending int64
	started bool
	out     []byte
}

func newRangeEncoder(dst []byte) *rangeEncoder {
	return &rangeEncoder{rng: 0xFFFFFFFF, out: dst}
}

func (e *rangeEncoder) shiftLow() {
	if e.low < 0xFF000000 || e.low > 0xFFFFFFFF {
		carry := byte(e.low >> 32)
		if e.started {
			e.out = append(e.out, e.cache+carry)
		}
		for ; e.pending > 0; e.pending-- {
			e.out = append(e.out, 0xFF+carry)
		}
		e.cache = byte(e.low >> 24)
		e.started = true
	} else {
		e.pending++
	}
	e.low = (e.low << 8) & 0xFFFFFFFF
}

func (e *rangeEncoder) encodeBit(p *prob, bit int) {
	bound := (e.rng >> probBits) * uint32(*p)
	if bit == 0 {
		e.rng = bound
		*p += (1<<probBits - *p) >> moveBits
	} else {
		e.low += uint64(bound)
		e.rng -= bound
		*p -= *p >> moveBits
	}
	for e.rng < topValue {
		e.shiftLow()
		e.rng <<= 8
	}
}

func (e *rangeEncoder) encodeDirectBits(v uint32, nbits int) {
	for i := nbits - 1; i >= 0; i-- {
		e.rng >>= 1
		if (v>>uint(i))&1 != 0 {
			e.low += uint64(e.rng)
		}
		for e.rng < topValue {
			e.shiftLow()
			e.rng <<= 8
		}
	}
}

func (e *rangeEncoder) flush() []byte {
	for i := 0; i < 5; i++ {
		e.shiftLow()
	}
	return e.out
}

// encodeTree encodes an nbits-wide symbol MSB-first through a bit tree.
func (e *rangeEncoder) encodeTree(tree []prob, sym, nbits int) {
	node := 1
	for i := nbits - 1; i >= 0; i-- {
		bit := (sym >> uint(i)) & 1
		e.encodeBit(&tree[node], bit)
		node = node<<1 | bit
	}
}

// ---------- range decoder ----------

// phantomSlack bounds how many zero bytes past the input end the decoder may
// read before Decompress declares the input truncated. The decoder's byte
// consumption mirrors the encoder's output, so genuine streams need none;
// the slack only covers the final-symbol normalize running marginally ahead.
const phantomSlack = 2

type rangeDecoder struct {
	code uint32
	rng  uint32
	in   []byte
	pos  int
}

func newRangeDecoder(src []byte) *rangeDecoder {
	d := &rangeDecoder{rng: 0xFFFFFFFF, in: src}
	for i := 0; i < 4; i++ {
		d.code = d.code<<8 | uint32(d.next())
	}
	return d
}

// next returns the next input byte, or 0 past the end, counting how far past
// the end the decoder has read. A well-formed stream needs no phantom bytes:
// the decoder's consumption (4 priming bytes plus one byte per normalize)
// mirrors the encoder's output exactly, so Decompress treats more than
// phantomSlack reads past the end as truncation.
func (d *rangeDecoder) next() byte {
	if d.pos >= len(d.in) {
		d.pos++
		return 0
	}
	b := d.in[d.pos]
	d.pos++
	return b
}

func (d *rangeDecoder) normalize() {
	for d.rng < topValue {
		d.rng <<= 8
		d.code = d.code<<8 | uint32(d.next())
	}
}

func (d *rangeDecoder) decodeBit(p *prob) int {
	bound := (d.rng >> probBits) * uint32(*p)
	var bit int
	if d.code < bound {
		d.rng = bound
		*p += (1<<probBits - *p) >> moveBits
	} else {
		d.code -= bound
		d.rng -= bound
		*p -= *p >> moveBits
		bit = 1
	}
	d.normalize()
	return bit
}

func (d *rangeDecoder) decodeDirectBits(nbits int) uint32 {
	var v uint32
	for i := 0; i < nbits; i++ {
		d.rng >>= 1
		d.code -= d.rng
		t := 0 - (d.code >> 31)
		d.code += d.rng & t
		d.normalize()
		v = v<<1 | (t + 1)
	}
	return v
}

func (d *rangeDecoder) decodeTree(tree []prob, nbits int) int {
	node := 1
	for i := 0; i < nbits; i++ {
		node = node<<1 | d.decodeBit(&tree[node])
	}
	return node - 1<<uint(nbits)
}

// ---------- length and distance helpers ----------

func (e *rangeEncoder) encodeLength(lp *lenProbs, length int) {
	l := length - lenBase
	switch {
	case l < 8:
		e.encodeBit(&lp.choice1, 0)
		e.encodeTree(lp.low[:], l, 3)
	case l < 8+32:
		e.encodeBit(&lp.choice1, 1)
		e.encodeBit(&lp.choice2, 0)
		e.encodeTree(lp.mid[:], l-8, 5)
	default:
		e.encodeBit(&lp.choice1, 1)
		e.encodeBit(&lp.choice2, 1)
		e.encodeTree(lp.high[:], l-40, 8)
	}
}

func (d *rangeDecoder) decodeLength(lp *lenProbs) int {
	if d.decodeBit(&lp.choice1) == 0 {
		return lenBase + d.decodeTree(lp.low[:], 3)
	}
	if d.decodeBit(&lp.choice2) == 0 {
		return lenBase + 8 + d.decodeTree(lp.mid[:], 5)
	}
	return lenBase + 40 + d.decodeTree(lp.high[:], 8)
}

// distSlot maps a zero-based distance value to its LZMA-style slot.
func distSlot(d uint32) int {
	if d < 4 {
		return int(d)
	}
	n := bits.Len32(d) - 1
	return n*2 + int((d>>(uint(n)-1))&1)
}

func (e *rangeEncoder) encodeDistance(p *probs, dist int) {
	dv := uint32(dist - 1)
	slot := distSlot(dv)
	e.encodeTree(p.slot[:], slot, 6)
	if slot >= 4 {
		nb := slot/2 - 1
		base := uint32(2|slot&1) << uint(nb)
		e.encodeDirectBits(dv-base, nb)
	}
}

func (d *rangeDecoder) decodeDistance(p *probs) int {
	slot := d.decodeTree(p.slot[:], 6)
	if slot < 4 {
		return slot + 1
	}
	nb := slot/2 - 1
	base := uint32(2|slot&1) << uint(nb)
	return int(base+d.decodeDirectBits(nb)) + 1
}

// ---------- compression ----------

func litContext(prev byte) int { return int(prev >> 6) }

func hash3(b []byte, i int) uint32 {
	u := uint32(b[i]) | uint32(b[i+1])<<8 | uint32(b[i+2])<<16
	return (u * 2654435761) >> (32 - hashLog)
}

func matchLen(src []byte, a, b, max int) int {
	n := 0
	limit := len(src) - b
	if limit > max {
		limit = max
	}
	for n+8 <= limit && binary.LittleEndian.Uint64(src[a+n:]) == binary.LittleEndian.Uint64(src[b+n:]) {
		n += 8
	}
	for n < limit && src[a+n] == src[b+n] {
		n++
	}
	return n
}

// Compress implements compress.Codec.
func (c Codec) Compress(dst, src []byte) []byte {
	depth := c.Depth
	if depth <= 0 {
		depth = 128
	}
	p := newProbs()
	defer putProbs(p)
	enc := newRangeEncoder(dst)
	if len(src) == 0 {
		return enc.flush()
	}
	mf := mfPool.Get().(*mfState)
	defer mfPool.Put(mf)
	head := mf.head[:]
	for i := range head {
		head[i] = -1
	}
	if cap(mf.prevChain) < len(src) {
		mf.prevChain = make([]int32, len(src))
	}
	prevChain := mf.prevChain[:len(src)]
	insert := func(pos int) {
		if pos+minMatch > len(src) {
			return
		}
		h := hash3(src, pos)
		prevChain[pos] = head[h]
		head[h] = int32(pos)
	}
	best := func(pos int) (bLen, bDist int) {
		if pos+minMatch > len(src) {
			return 0, 0
		}
		maxLen := len(src) - pos
		if maxLen > maxMatchLen {
			maxLen = maxMatchLen
		}
		cand := int(head[hash3(src, pos)])
		for d := 0; d < depth && cand >= 0; d++ {
			if bLen == 0 || (pos+bLen < len(src) && src[cand+bLen] == src[pos+bLen]) {
				if l := matchLen(src, cand, pos, maxLen); l > bLen {
					// Distance heuristics: short matches far away
					// cost more to encode than literals.
					dist := pos - cand
					ok := l >= 5 || (l == 4 && dist < 1<<16) || (l == 3 && dist < 1<<12)
					if ok {
						bLen, bDist = l, dist
					}
				}
			}
			cand = int(prevChain[cand])
		}
		return bLen, bDist
	}

	pos := 0
	prevOp := 0
	var reps [4]int // recent distances, most recent first (LZMA rep queue)
	var prevByte byte

	emitLiteral := func() {
		enc.encodeBit(&p.isMatch[prevOp], 0)
		enc.encodeLiteral(p, prevByte, src[pos])
		prevByte = src[pos]
		prevOp = 0
		pos++
	}
	advance := func(length int) {
		for q := pos + 1; q < pos+length; q++ {
			insert(q)
		}
		pos += length
		prevByte = src[pos-1]
		prevOp = 1
	}
	emitNewMatch := func(length, dist int) {
		enc.encodeBit(&p.isMatch[prevOp], 1)
		enc.encodeBit(&p.isRep, 0)
		enc.encodeLength(&p.lenM, length)
		enc.encodeDistance(p, dist)
		reps = [4]int{dist, reps[0], reps[1], reps[2]}
		advance(length)
	}
	emitRep := func(length, idx int) {
		enc.encodeBit(&p.isMatch[prevOp], 1)
		enc.encodeBit(&p.isRep, 1)
		switch idx {
		case 0:
			enc.encodeBit(&p.isRepG0, 0)
			if length == 1 {
				enc.encodeBit(&p.isRep0Long, 0) // short rep
				advance(1)
				return
			}
			enc.encodeBit(&p.isRep0Long, 1)
		case 1:
			enc.encodeBit(&p.isRepG0, 1)
			enc.encodeBit(&p.isRepG1, 0)
			reps = [4]int{reps[1], reps[0], reps[2], reps[3]}
		case 2:
			enc.encodeBit(&p.isRepG0, 1)
			enc.encodeBit(&p.isRepG1, 1)
			enc.encodeBit(&p.isRepG2, 0)
			reps = [4]int{reps[2], reps[0], reps[1], reps[3]}
		default:
			enc.encodeBit(&p.isRepG0, 1)
			enc.encodeBit(&p.isRepG1, 1)
			enc.encodeBit(&p.isRepG2, 1)
			reps = [4]int{reps[3], reps[0], reps[1], reps[2]}
		}
		enc.encodeLength(&p.lenR, length)
		advance(length)
	}
	// bestRep finds the longest match among the recent distances (ties
	// prefer the cheaper-to-encode lower index).
	bestRep := func(at int) (bLen, bIdx int) {
		max := len(src) - at
		if max > maxMatchLen {
			max = maxMatchLen
		}
		for idx, d := range reps {
			if d <= 0 || at < d {
				continue
			}
			if l := matchLen(src, at-d, at, max); l > bLen {
				bLen, bIdx = l, idx
			}
		}
		return bLen, bIdx
	}

	for pos < len(src) {
		mLen, mDist := best(pos)
		repLen, repIdx := bestRep(pos)
		insert(pos)
		// Rep matches are far cheaper to encode than fresh distances:
		// prefer them unless the fresh match is clearly longer.
		if repLen >= minRepMatch && repLen+2 >= mLen {
			emitRep(repLen, repIdx)
			continue
		}
		if mLen >= minMatch {
			// One-step lazy: emit a literal instead if the next
			// position has a clearly better match.
			if pos+1 < len(src) {
				if nLen, _ := best(pos + 1); nLen > mLen+1 {
					emitLiteral()
					continue
				}
			}
			emitNewMatch(mLen, mDist)
			continue
		}
		// Single-byte short rep: a couple of model bits instead of a
		// full literal.
		if repLen == 1 && repIdx == 0 {
			emitRep(1, 0)
			continue
		}
		emitLiteral()
	}
	return enc.flush()
}

func (e *rangeEncoder) encodeLiteral(p *probs, prev, b byte) {
	e.encodeTree(p.lit[litContext(prev)][:], int(b), 8)
}

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: lzheavy: %s", compress.ErrCorrupt, fmt.Sprintf(format, args...))
}

// Decompress implements compress.Codec.
func (Codec) Decompress(dst, src []byte, decompressedSize int) ([]byte, error) {
	if decompressedSize < 0 {
		return dst, corrupt("negative declared size %d", decompressedSize)
	}
	start := len(dst)
	if cap(dst)-len(dst) < decompressedSize {
		grown := make([]byte, len(dst), len(dst)+decompressedSize)
		copy(grown, dst)
		dst = grown
	}
	p := newProbs()
	defer putProbs(p)
	dec := newRangeDecoder(src)
	prevOp := 0
	var reps [4]int
	var prevByte byte
	// out is the pre-extended output window, d its write frontier: index
	// writes instead of per-byte appends keep the literal-heavy decode
	// loop free of append bookkeeping. The range coder is untouched.
	out := dst[start : start+decompressedSize]
	d := 0
	for d < decompressedSize {
		if dec.pos > len(src)+phantomSlack {
			return dst[:start+d], corrupt("input exhausted after %d of %d declared bytes", d, decompressedSize)
		}
		if dec.decodeBit(&p.isMatch[prevOp]) == 0 {
			b := byte(dec.decodeTree(p.lit[litContext(prevByte)][:], 8))
			out[d] = b
			d++
			prevByte = b
			prevOp = 0
			continue
		}
		var dist, length int
		if dec.decodeBit(&p.isRep) == 0 {
			length = dec.decodeLength(&p.lenM)
			dist = dec.decodeDistance(p)
			reps = [4]int{dist, reps[0], reps[1], reps[2]}
		} else {
			if dec.decodeBit(&p.isRepG0) == 0 {
				dist = reps[0]
				if dec.decodeBit(&p.isRep0Long) == 0 {
					length = 1 // short rep
				} else {
					length = dec.decodeLength(&p.lenR)
				}
			} else {
				if dec.decodeBit(&p.isRepG1) == 0 {
					dist = reps[1]
					reps = [4]int{reps[1], reps[0], reps[2], reps[3]}
				} else if dec.decodeBit(&p.isRepG2) == 0 {
					dist = reps[2]
					reps = [4]int{reps[2], reps[0], reps[1], reps[3]}
				} else {
					dist = reps[3]
					reps = [4]int{reps[3], reps[0], reps[1], reps[2]}
				}
				length = dec.decodeLength(&p.lenR)
			}
			if dist == 0 {
				return dst[:start+d], corrupt("repeat distance before any match")
			}
		}
		if dist > d {
			return dst[:start+d], corrupt("distance %d exceeds produced bytes %d", dist, d)
		}
		if d+length > decompressedSize {
			return dst[:start+d], corrupt("match overruns declared size %d", decompressedSize)
		}
		srcPos := d - dist
		if dist >= length {
			copy(out[d:d+length], out[srcPos:srcPos+length])
		} else {
			// Overlapping match: copy one period, then double the
			// replicated region, capping every copy at length.
			copy(out[d:d+dist], out[srcPos:d])
			for n := dist; n < length; n *= 2 {
				copy(out[d+n:d+length], out[d:d+n])
			}
		}
		d += length
		prevByte = out[d-1]
		prevOp = 1
	}
	return dst[:start+decompressedSize], nil
}
