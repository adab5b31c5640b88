package lzfast

// This file holds the production block decoder: an LZ4-style fast loop that
// decodes into a pre-extended output window instead of the reference
// decoder's per-byte appends. The token grammar is unchanged —
// decompressBlockRef in ref_test.go remains the executable specification, and
// the differential tests (TestDecompressDifferential, FuzzDecompressFast)
// pin this decoder to it: identical output on every valid block, agreement
// on accept/reject for every malformed one.
//
// Copy strategy per sequence:
//
//   - short runs (<= wildCopyShort bytes) take a branchless pair of 16-byte
//     "wild" copies that may overshoot the exact length — this is where the
//     decode time of match-dense corpora goes;
//   - long runs take a single exact copy (one memmove), which beats a
//     strided chunk loop on multi-KB literal runs of high-entropy data;
//   - overlapping matches (offset < mlen) take expandCopy, which doubles
//     the replicated region in O(log(mlen/offset)) memmoves instead of a
//     byte-at-a-time loop.
//
// # Safety-margin invariants
//
// A wild pair writes exactly wildCopyShort bytes from the write frontier d
// (and reads wildCopyShort bytes from its source), overshooting the true
// length by up to wildCopyShort-1 bytes. It is only taken when the
// overshoot provably stays inside the buffers:
//
//   - literal wild copy: s+wildCopyShort <= len(src) (source overread) and
//     d+wildCopyShort <= size (destination overwrite);
//   - match wild copy: additionally offset >= wildCopyMargin, so the first
//     chunk's source lies entirely behind the write frontier (fully
//     decoded); the second chunk may read the first chunk's output, which
//     is already final;
//   - overshoot bytes are garbage but always lie at or ahead of the write
//     frontier d, and the final length check (d == size) guarantees every
//     byte of the window is overwritten by a later sequence or was exact.
//
// Sequences that cannot respect the margin — near the block or input tail —
// fall back to exact copies, so no byte outside dst[start:start+size] is
// ever touched.

const (
	// wildCopyMargin is the chunk size of kcopy16; a match wild copy
	// requires offset >= wildCopyMargin so chunk sources are decoded.
	wildCopyMargin = 16
	// wildCopyShort is the run-length cutoff for the wild-copy pair; it
	// is also exactly how many bytes a wild pair writes.
	wildCopyShort = 32
)

// expandCopy replicates the offset-periodic pattern ending at buf[d] over
// buf[d:d+mlen] for an overlapping match (offset < mlen): it copies the
// first period exactly, then doubles the replicated region, capping every
// copy at mlen. No overshoot, so it needs no margin.
func expandCopy(buf []byte, d, offset, mlen int) {
	copy(buf[d:d+offset], buf[d-offset:d])
	for n := offset; n < mlen; n *= 2 {
		copy(buf[d+n:d+mlen], buf[d:d+n])
	}
}

// decompressBlock decodes one block, appending to dst. It accepts exactly
// the blocks decompressBlockRef accepts and produces identical bytes; only
// the copy strategy differs.
func decompressBlock(dst, src []byte, decompressedSize int) ([]byte, error) {
	if decompressedSize < 0 {
		return dst, corrupt("negative declared size %d", decompressedSize)
	}
	start := len(dst)
	if cap(dst)-start < decompressedSize {
		grown := make([]byte, start, start+decompressedSize)
		copy(grown, dst)
		dst = grown
	}
	// out is the full output window; d is the write frontier within it.
	out := dst[start : start+decompressedSize]
	d := 0
	s := 0
	for s < len(src) {
		token := src[s]
		s++
		litLen := int(token >> 4)
		if litLen == 15 {
			// Single-byte extension is the overwhelmingly common case
			// (runs of 15..269 literals); keep it inline and leave the
			// 255-chain to readExtLength.
			if s < len(src) && src[s] < 255 {
				litLen += int(src[s])
				s++
			} else {
				ext, n, err := readExtLength(src, s)
				if err != nil {
					return dst[:start+d], err
				}
				litLen += ext
				s += n
			}
		} else if s+wildCopyMargin+2 <= len(src) && d+wildCopyShort <= decompressedSize {
			// Shortcut: a short literal run (<= 14 bytes, no extension)
			// with a full wild-copy margin on both sides. One 16-byte
			// copy covers the run, and the margins prove every generic
			// check below (input overrun, output overrun, final
			// sequence) false, so jump straight to the match.
			kcopy16(out[d:], src[s:])
			s += litLen
			d += litLen
			goto match
		}
		if s+litLen > len(src) {
			return dst[:start+d], corrupt("literal run of %d overruns input", litLen)
		}
		if d+litLen > decompressedSize {
			return dst[:start+d], corrupt("output exceeds declared size %d", decompressedSize)
		}
		if litLen > 0 {
			if litLen <= wildCopyShort && s+wildCopyShort <= len(src) && d+wildCopyShort <= decompressedSize {
				kcopy16(out[d:], src[s:])
				if litLen > wildCopyMargin {
					kcopy16(out[d+16:], src[s+16:])
				}
			} else {
				copy(out[d:d+litLen], src[s:s+litLen])
			}
			d += litLen
			s += litLen
		}
		if s == len(src) {
			break // final literals-only sequence
		}
		if s+2 > len(src) {
			return dst[:start+d], corrupt("truncated match offset")
		}
	match:
		offset := int(src[s]) | int(src[s+1])<<8
		s += 2
		if offset == 0 {
			return dst[:start+d], corrupt("zero match offset")
		}
		mlen := int(token & 0x0f)
		if mlen == 15 {
			if s < len(src) && src[s] < 255 {
				mlen += int(src[s])
				s++
			} else {
				ext, n, err := readExtLength(src, s)
				if err != nil {
					return dst[:start+d], err
				}
				mlen += ext
				s += n
			}
		}
		mlen += minMatch
		if offset > d {
			return dst[:start+d], corrupt("match offset %d exceeds produced bytes %d", offset, d)
		}
		if d+mlen > decompressedSize {
			return dst[:start+d], corrupt("match output exceeds declared size %d", decompressedSize)
		}
		if offset >= mlen {
			// Non-overlapping match.
			if mlen <= wildCopyShort && offset >= wildCopyMargin && d+wildCopyShort <= decompressedSize {
				kcopy16(out[d:], out[d-offset:])
				if mlen > wildCopyMargin {
					kcopy16(out[d+16:], out[d-offset+16:])
				}
			} else {
				copy(out[d:d+mlen], out[d-offset:d-offset+mlen])
			}
		} else if mlen <= 2*wildCopyMargin {
			// Short overlapping match (the dominant shape on barely
			// compressible data: offsets 1..7, lengths 4..8). A plain
			// byte loop beats expandCopy's memmove calls at these sizes.
			koverlapCopy(out, d, offset, mlen)
		} else {
			// Long overlapping match (offset==1 is the RLE case).
			expandCopy(out, d, offset, mlen)
		}
		d += mlen
	}
	if d != decompressedSize {
		return dst[:start+d], corrupt("decoded %d bytes, declared %d", d, decompressedSize)
	}
	return dst[:start+decompressedSize], nil
}
