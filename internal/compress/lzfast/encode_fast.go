package lzfast

// This file holds the production fast-mode encoder. The parse — candidate
// resolution and acceptance, backward extension, hash-table updates,
// end-of-match seeding, skip acceleration — is copied decision-for-decision
// from compressFastRef in ref_test.go, which remains the executable
// specification; what changed is the machinery around it:
//
//   - source loads and match extension go through the tag-selected kernel
//     primitives (kload32/kmatchLen), dropping per-access bounds checks on
//     the unsafe tier and folding the 8-byte compare loop into a single
//     XOR + trailing-zero count;
//   - output is written through a pre-reserved frontier (one capacity check
//     per call instead of one append per emit), with literals moved by
//     16-byte wild copies that may overshoot into the reserved margin.
//
// TestCompressFastDifferential and FuzzCompressFastUnsafe pin this encoder
// to compressFastRef byte-for-byte on every input, on both kernel tiers.

// maxCompressedLen bounds the encoder's output for an n-byte block: the
// worst case is one literals-only sequence (token + ext-length bytes +
// literals, and every match sequence saves at least one byte net), plus
// room for the final wild copy's overshoot.
func maxCompressedLen(n int) int { return n + n/255 + 2*wildCopyMargin }

// reserve returns dst with room past its length for the worst-case encoding
// of an n-byte block, regrown if need be. Both parses write into
// dst[:cap(dst)] from the frontier len(dst). Overshoot from wild copies lands
// past the frontier and is either overwritten by the next emit or trimmed by
// the final re-slice, so it never reaches the caller.
func reserve(dst []byte, n int) []byte {
	if need := maxCompressedLen(n); cap(dst)-len(dst) < need {
		grown := make([]byte, len(dst), len(dst)+need)
		copy(grown, dst)
		dst = grown
	}
	return dst
}

func compressFast(dst, src []byte) []byte {
	dst = reserve(dst, len(src))
	out, d := dst[:cap(dst)], len(dst)
	if len(src) < minMatch+1 {
		return dst[:emitFastFinal(out, d, src, 0)]
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
		u := kload64(src, i)
		h := hash5(u, hashLog)
		cand, dist := candidate(table[h], i)
		table[h] = uint16(i)
		if dist != 0 && kload32(src, cand) == uint32(u) {
			mlen := minMatch + kmatchLen(src, cand+minMatch, i+minMatch)
			if mlen > minMatch || dist >= tinyOverlapOffset {
				// Extend backward over the pending literals: skip
				// acceleration may have stepped over the true start.
				for i > anchor && cand > 0 && src[i-1] == src[cand-1] {
					i--
					cand--
					mlen++
				}
				d = emitFast(out, d, src, anchor, i, dist, mlen)
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
					if u := kload64(src, p); (u^(u>>16))<<24 == 0 {
						p = i - mlen + 1
					}
					table[hash5(kload64(src, p), hashLog)] = uint16(p)
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
	return dst[:emitFastFinal(out, d, src, anchor)]
}

// emitFast writes one token sequence (literals src[anchor:i] + match) at
// out[d:], returning the new frontier. Byte-for-byte the serialization of
// the reference emitSequence (ref_test.go).
func emitFast(out []byte, d int, src []byte, anchor, i, offset, mlen int) int {
	litLen := i - anchor
	var token byte
	if litLen >= 15 {
		token = 15 << 4
	} else {
		token = byte(litLen) << 4
	}
	m := mlen - minMatch
	if m >= 15 {
		token |= 15
	} else {
		token |= byte(m)
	}
	out[d] = token
	d++
	if litLen >= 15 {
		d = putExtLength(out, d, litLen-15)
	}
	if litLen > 0 {
		// Wild-copy when the literal tail leaves a full stride of
		// readable source; i <= mfLimit usually guarantees it, but ext
		// lengths can push i within wildCopyMargin of the block end.
		if i+wildCopyMargin <= len(src) {
			kwildCopy(out[d:], src[anchor:], litLen)
		} else {
			copy(out[d:d+litLen], src[anchor:i])
		}
		d += litLen
	}
	out[d] = byte(offset)
	out[d+1] = byte(offset >> 8)
	d += 2
	if m >= 15 {
		d = putExtLength(out, d, m-15)
	}
	return d
}

// emitFastFinal writes the final literals-only sequence for src[anchor:].
func emitFastFinal(out []byte, d int, src []byte, anchor int) int {
	litLen := len(src) - anchor
	if litLen >= 15 {
		out[d] = 15 << 4
		d++
		d = putExtLength(out, d, litLen-15)
	} else {
		out[d] = byte(litLen) << 4
		d++
	}
	copy(out[d:d+litLen], src[anchor:])
	return d + litLen
}

// putExtLength writes an extended length's 255-run and final byte at out[d:].
func putExtLength(out []byte, d, rest int) int {
	for rest >= 255 {
		out[d] = 255
		d++
		rest -= 255
	}
	out[d] = byte(rest)
	d++
	return d
}
