package stream

import (
	"adaptio/internal/compress"
	"adaptio/internal/compress/flatecodec"
	"adaptio/internal/compress/lzfast"
	"adaptio/internal/compress/lzheavy"
	"adaptio/internal/compress/probe"
)

func init() {
	// Make the default codecs resolvable by ID on the receive path.
	compress.Register(lzfast.Fast{})
	compress.Register(lzfast.HC{})
	compress.Register(lzheavy.Codec{})
	compress.Register(flatecodec.Codec{})
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
//
// Its codecs (and ExtendedLadder's) are built with the codec-level entropy
// probe off and must be fed blocks that were already judged: on the stream
// path the Writer's verdict (WriterConfig.Probe, taken once when the block is
// cut) is the only one, so a block that reaches codec.Compress is worth
// compressing, and a second scan of the same bytes would buy nothing — and
// overrule a writer configured with probe.Disabled(). A caller compressing
// with a ladder codec directly gets the full match loop on every block.
func DefaultLadder() compress.Ladder {
	noProbe := probe.Disabled()
	return compress.Ladder{
		{Name: "NO", Codec: compress.None()},
		{Name: "LIGHT", Codec: lzfast.Fast{Probe: &noProbe}},
		{Name: "MEDIUM", Codec: lzfast.HC{Probe: &noProbe}},
		{Name: "HEAVY", Codec: lzheavy.Codec{Probe: &noProbe}},
	}
}

// ExtendedLadder returns a six-level ladder exercising the paper's remark
// that "it is conceivable to use the same compression algorithm at multiple
// levels but with different parameters": lzfast-hc appears at two search
// depths and DEFLATE sits between them and the range coder. The decision
// model needs no change for the larger ladder — dominated levels are simply
// probed and abandoned.
func ExtendedLadder() compress.Ladder {
	noProbe := probe.Disabled()
	return compress.Ladder{
		{Name: "NO", Codec: compress.None()},
		{Name: "LIGHT", Codec: lzfast.Fast{Probe: &noProbe}},
		{Name: "MEDIUM-", Codec: lzfast.HC{Depth: 16, Probe: &noProbe}},
		{Name: "MEDIUM+", Codec: lzfast.HC{Depth: 256, Probe: &noProbe}},
		{Name: "FLATE", Codec: flatecodec.Codec{Level: 6}},
		{Name: "HEAVY", Codec: lzheavy.Codec{Probe: &noProbe}},
	}
}
