package lzfast

import "encoding/binary"

// The reference codec: the executable specification the production encoder
// (encode_fast.go) and decoder (decode_fast.go) are pinned to, byte for byte,
// by the differential, fuzz and golden-digest suites. It is written with the
// bounds-checked primitives and append-based emit, and compiled only into
// the tests (export_test.go exports it as CompressFastRef and DecompressRef).

func load64(b []byte, i int) uint64 {
	return binary.LittleEndian.Uint64(b[i:])
}

// compressFastRef is the retained reference encoder: the fast-mode parse
// expressed with the bounds-checked primitives and append-based emit. The
// production encoder (compressFast in encode_fast.go) must produce exactly
// these bytes on every input, on both kernel tiers; the differential tests
// and FuzzCompressFastUnsafe enforce that. Keep this implementation boring
// — it is the executable specification of the parse.
func compressFastRef(dst, src []byte) []byte {
	if len(src) < minMatch+1 {
		return emitSequence(dst, src, 0, 0)
	}
	table := fastPool.Get().(*fastTable)
	defer fastPool.Put(table)
	*table = fastTable{}
	anchor := 0
	i := 0
	// The 5-byte hash loads 8 bytes per probe, so the scan stops 8 bytes
	// short of the end; the tail is emitted as literals.
	mfLimit := len(src) - 8
	misses := 0
	for i <= mfLimit {
		h := hash5(load64(src, i), hashLog)
		cand, dist := candidate(table[h], i)
		table[h] = uint16(i)
		if dist != 0 && load32(src, cand) == load32(src, i) {
			mlen := minMatch + matchLen(src, cand+minMatch, i+minMatch)
			if mlen > minMatch || dist >= tinyOverlapOffset {
				// Extend backward over the pending literals: skip
				// acceleration may have stepped over the true start.
				for i > anchor && cand > 0 && src[i-1] == src[cand-1] {
					i--
					cand--
					mlen++
				}
				dst = emitSequence(dst, src[anchor:i], dist, mlen)
				i += mlen
				anchor = i
				misses = 0
				// Seed the match's last two bytes: what follows a
				// repetition tends to follow its next occurrence too.
				// Inside a run (the five hashed bytes at i-2 are the
				// five at i) the probe at i would take that seed
				// straight back as an overlapping match at distance 2,
				// the decoder's slowest copy; the match's second byte
				// is seeded there instead.
				if p := i - 2; p <= mfLimit {
					if u := load64(src, p); (u^(u>>16))<<24 == 0 {
						p = i - mlen + 1
					}
					table[hash5(load64(src, p), hashLog)] = uint16(p)
				}
				continue
			}
			// Declined tiny near-overlap: step past the matched window —
			// positions inside it would only re-offer the same tiny match.
			i += minMatch
			continue
		}
		// Skip acceleration on incompressible regions: the step grows
		// as consecutive probes fail, bounding worst-case time on
		// high-entropy input (same idea as LZ4's acceleration).
		misses++
		i += 1 + misses>>5
	}
	return emitSequence(dst, src[anchor:], 0, 0)
}

// emitSequence appends one token sequence (literals + optional match) to dst.
// A match length of 0 emits a final literals-only sequence.
func emitSequence(dst, lits []byte, offset, mlen int) []byte {
	litLen := len(lits)
	var token byte
	if litLen >= 15 {
		token = 15 << 4
	} else {
		token = byte(litLen) << 4
	}
	if mlen > 0 {
		m := mlen - minMatch
		if m >= 15 {
			token |= 15
		} else {
			token |= byte(m)
		}
	}
	dst = append(dst, token)
	if litLen >= 15 {
		dst = appendExtLength(dst, litLen-15)
	}
	dst = append(dst, lits...)
	if mlen > 0 {
		dst = append(dst, byte(offset), byte(offset>>8))
		if m := mlen - minMatch; m >= 15 {
			dst = appendExtLength(dst, m-15)
		}
	}
	return dst
}

func appendExtLength(dst []byte, rest int) []byte {
	for rest >= 255 {
		dst = append(dst, 255)
		rest -= 255
	}
	return append(dst, byte(rest))
}

// decompressBlockRef is the retained reference decoder: straightforward
// append-based decoding with per-step bounds checks. The production decoder
// (decompressBlock in decode_fast.go) must accept exactly the inputs this
// one accepts and produce identical bytes; the differential tests and
// FuzzDecompressFast enforce that. Keep this implementation boring.
func decompressBlockRef(dst, src []byte, decompressedSize int) ([]byte, error) {
	if decompressedSize < 0 {
		return dst, corrupt("negative declared size %d", decompressedSize)
	}
	start := len(dst)
	if cap(dst)-len(dst) < decompressedSize {
		grown := make([]byte, len(dst), len(dst)+decompressedSize)
		copy(grown, dst)
		dst = grown
	}
	s := 0
	for s < len(src) {
		token := src[s]
		s++
		litLen := int(token >> 4)
		if litLen == 15 {
			ext, n, err := readExtLength(src, s)
			if err != nil {
				return dst, err
			}
			litLen += ext
			s += n
		}
		if s+litLen > len(src) {
			return dst, corrupt("literal run of %d overruns input", litLen)
		}
		if len(dst)-start+litLen > decompressedSize {
			return dst, corrupt("output exceeds declared size %d", decompressedSize)
		}
		dst = append(dst, src[s:s+litLen]...)
		s += litLen
		if s == len(src) {
			break // final literals-only sequence
		}
		if s+2 > len(src) {
			return dst, corrupt("truncated match offset")
		}
		offset := int(src[s]) | int(src[s+1])<<8
		s += 2
		if offset == 0 {
			return dst, corrupt("zero match offset")
		}
		mlen := int(token & 0x0f)
		if mlen == 15 {
			ext, n, err := readExtLength(src, s)
			if err != nil {
				return dst, err
			}
			mlen += ext
			s += n
		}
		mlen += minMatch
		if offset > len(dst)-start {
			return dst, corrupt("match offset %d exceeds produced bytes %d", offset, len(dst)-start)
		}
		if len(dst)-start+mlen > decompressedSize {
			return dst, corrupt("match output exceeds declared size %d", decompressedSize)
		}
		dst = appendCopy(dst, offset, mlen)
	}
	if got := len(dst) - start; got != decompressedSize {
		return dst, corrupt("decoded %d bytes, declared %d", got, decompressedSize)
	}
	return dst, nil
}

// appendCopy copies mlen bytes from dst[len(dst)-offset:] onto the end of
// dst, handling the overlapping case (offset < mlen) which implements
// run-length-style repetition.
func appendCopy(dst []byte, offset, mlen int) []byte {
	srcPos := len(dst) - offset
	if offset >= mlen {
		return append(dst, dst[srcPos:srcPos+mlen]...)
	}
	for i := 0; i < mlen; i++ {
		dst = append(dst, dst[srcPos+i])
	}
	return dst
}
