package stream

import (
	"adaptio/internal/compress"
	"adaptio/internal/compress/lzfast"
	"adaptio/internal/compress/lzheavy"
)

func init() {
	// Make the default codecs resolvable by ID on the receive path.
	compress.Register(lzfast.Fast{})
	compress.Register(lzfast.HC{})
	compress.Register(lzheavy.Codec{})
}

// Paper level indices for DefaultLadder (Section III-B).
const (
	LevelNo     = 0 // no compression
	LevelLight  = 1 // QuickLZ, best compression speed (our lzfast)
	LevelMedium = 2 // QuickLZ favouring compressed size (our lzfast-hc)
	LevelHeavy  = 3 // LZMA (our lzheavy)
)

// DefaultLadder returns the paper's four-level ladder: NO, LIGHT (QuickLZ
// fast — here lzfast), MEDIUM (QuickLZ better ratio — here lzfast-hc) and
// HEAVY (LZMA — here lzheavy), ordered by time/compression ratio.
func DefaultLadder() compress.Ladder {
	return compress.Ladder{
		{Name: "NO", Codec: compress.None()},
		{Name: "LIGHT", Codec: lzfast.Fast{}},
		{Name: "MEDIUM", Codec: lzfast.HC{}},
		{Name: "HEAVY", Codec: lzheavy.Codec{}},
	}
}
