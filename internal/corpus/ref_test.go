package corpus

import "adaptio/internal/xrand"

// The reference generator: Generate and the MODERATE text generator as they
// were before the text generator was rebuilt around locals and a padded word
// table, kept verbatim as the executable specification of the corpus bytes.
// HIGH and LOW run the production generators, which that rebuild left
// untouched, through the reference's own Generate loop. TestGenerateDigests
// pins both to the same digests, and FuzzGenerateMatchesReference compares
// them byte for byte at any size.

func generateRef(kind Kind, n int, seed uint64) []byte {
	out := make([]byte, 0, n)
	g := newRefGenerator(kind, seed)
	for len(out) < n {
		tok := g.next(n - len(out))
		out = append(out, tok[:min(len(tok), n-len(out))]...)
	}
	return out
}

func newRefGenerator(kind Kind, seed uint64) generator {
	if kind == Moderate {
		return newRefTextGenerator(seed)
	}
	return newGenerator(kind, seed)
}

type refTextGenerator struct {
	r           *xrand.RNG
	col         int
	wordsInSent int
	sentLen     int
	sentsInPara int
	paraLen     int
	startOfSent bool
	// chunk holds the token next builds, whole pieces of at most maxPiece
	// bytes each, so building one never allocates.
	chunk [512]byte
}

func newRefTextGenerator(seed uint64) *refTextGenerator {
	g := &refTextGenerator{r: xrand.New(seed), startOfSent: true}
	g.sentLen = 5 + g.r.Intn(11)
	g.paraLen = 3 + g.r.Intn(5)
	return g
}

// zipfWord samples a word by Zipf rank.
func (g *refTextGenerator) zipfWord() string {
	// Inverse-CDF sampling over weights 1/(r+2) is approximated by
	// exponentiating a uniform variate; cheap and close enough.
	u := g.r.Float64()
	idx := int(u * u * u * float64(len(vocabulary)))
	if idx >= len(vocabulary) {
		idx = len(vocabulary) - 1
	}
	return vocabulary[idx]
}

// next returns a chunk of whole pieces. No piece depends on max, so what
// the chunk holds past the end Generate cuts changes nothing before it.
func (g *refTextGenerator) next(int) []byte {
	chunk := g.chunk[:0]
	for len(chunk) <= len(g.chunk)-maxPiece {
		chunk = g.appendPiece(chunk)
	}
	return chunk
}

// appendPiece appends one piece to dst: a word with any sentence or
// paragraph end, then a space or a line break.
func (g *refTextGenerator) appendPiece(dst []byte) []byte {
	start := len(dst)
	dst = append(dst, g.zipfWord()...)
	if g.startOfSent {
		dst[start] -= 'a' - 'A'
		g.startOfSent = false
	}
	g.wordsInSent++
	if g.wordsInSent >= g.sentLen {
		switch g.r.Intn(10) {
		case 0:
			dst = append(dst, '!')
		case 1:
			dst = append(dst, '?')
		default:
			dst = append(dst, '.')
		}
		g.wordsInSent = 0
		g.sentLen = 5 + g.r.Intn(11)
		g.startOfSent = true
		g.sentsInPara++
		if g.sentsInPara >= g.paraLen {
			dst = append(dst, '\n', '\n')
			g.sentsInPara = 0
			g.paraLen = 3 + g.r.Intn(5)
			g.col = 0
		}
	}
	// Line wrapping at ~70 columns, like the Project Gutenberg plain text
	// alice29.txt actually ships.
	if g.col+len(dst)-start > 70 {
		dst = append(dst, '\n')
		g.col = 0
	} else {
		dst = append(dst, ' ')
		g.col += len(dst) - start
	}
	return dst
}
