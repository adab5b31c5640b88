package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"adaptio/internal/cloudsim"
	"adaptio/internal/compress"
	"adaptio/internal/corpus"
	"adaptio/internal/stats"
	"adaptio/internal/stream"
)

// Calibrate measures a ladder's codecs (stream.DefaultLadder for the paper's
// four levels) on the synthetic corpus and returns a cloudsim profile ladder
// built from the measurements. It is the live alternative to
// cloudsim.ReferenceProfiles: run the 50 GB experiments against what *this*
// machine's codecs actually deliver instead of the paper's hardware.
//
// sampleBytes is the per-measurement volume (zero means 4 MB). Measurements
// use the stream layer's 128 KB blocks, like production traffic. Each
// (level, kind) cell is timed calibrationRounds times and keeps the median.
func Calibrate(ladder compress.Ladder, sampleBytes int) ([]cloudsim.CodecProfile, error) {
	if err := ladder.Validate(); err != nil {
		return nil, err
	}
	if sampleBytes <= 0 {
		sampleBytes = 4 << 20
	}
	kinds := corpus.Kinds()
	samples := make([][]byte, len(kinds))
	for k, kind := range kinds {
		// The real Canterbury file when ADAPTIO_CANTERBURY_DIR is set,
		// otherwise the synthetic stand-in, looped to the sample size.
		file, _ := corpus.LoadOrGenerate(kind, 1)
		samples[k] = make([]byte, sampleBytes)
		if _, err := io.ReadFull(corpus.NewLoopReader(file), samples[k]); err != nil {
			return nil, err
		}
	}
	bench := newCodecBench(sampleBytes)
	profiles := make([]cloudsim.CodecProfile, len(ladder))
	for li, lvl := range ladder {
		p := cloudsim.CodecProfile{
			Name:       lvl.Name,
			CompMBps:   map[corpus.Kind]float64{},
			DecompMBps: map[corpus.Kind]float64{},
			Ratio:      map[corpus.Kind]float64{},
		}
		comp := make([][]float64, len(kinds))
		decomp := make([][]float64, len(kinds))
		for round := range calibrationRounds {
			for i := range kinds {
				k := (i + round) % len(kinds)
				c, d, ratio, err := bench.measure(lvl.Codec, samples[k], round == 0)
				if err != nil {
					return nil, fmt.Errorf("experiments: %s/%v: %w", p.Name, kinds[k], err)
				}
				comp[k] = append(comp[k], c)
				decomp[k] = append(decomp[k], d)
				p.Ratio[kinds[k]] = ratio
			}
		}
		for k, kind := range kinds {
			p.CompMBps[kind] = stats.Quantile(comp[k], 0.5)
			p.DecompMBps[kind] = stats.Quantile(decomp[k], 0.5)
		}
		profiles[li] = p
	}
	if err := cloudsim.ValidateLadder(profiles); err != nil {
		return nil, fmt.Errorf("experiments: calibrated profiles invalid: %w", err)
	}
	return profiles, nil
}

// calibrationRounds is how many times Calibrate times each (level, kind)
// cell. Each round visits the kinds in an order rotated by one, so that no
// kind is always the one timed first or after the same neighbour: a single
// pass in a fixed order read a plain copy (NO) up to twice as fast on the
// kind it timed last as on the one it timed first.
const calibrationRounds = 3

// codecBench holds the buffers timing a codec needs, allocated once and
// shared by every level, kind and round: a kind's sample is copied into src
// before its turn, so every cell reads from and writes to the same memory
// and only the bytes differ.
type codecBench struct {
	src    []byte
	comp   []byte   // compressed output, room for every block's worst case
	blocks [][]byte // each block's output, slices of comp
	out    []byte   // one decompressed block
}

func newCodecBench(sampleBytes int) *codecBench {
	const block = stream.DefaultBlockSize
	// The output buffers are allocated before any clock starts: a fresh one
	// per block would time the allocator and the collector, not the codec.
	// comp is also written once to its capacity, so a timed pass does not
	// take the page faults of fresh memory: at NO, which only copies, they
	// cost more than the copy.
	comp := make([]byte, compressRoom(sampleBytes, block))
	clear(comp)
	return &codecBench{
		src:    make([]byte, sampleBytes),
		comp:   comp[:0],
		blocks: make([][]byte, 0, (sampleBytes+block-1)/block),
		out:    make([]byte, 0, block),
	}
}

// measure times codec compressing sample block by block and decompressing
// it again, and returns both speeds in MB/s and the ratio. warm runs the
// codec once on one block first, so that one-time allocation costs do not
// skew the timing.
func (b *codecBench) measure(codec compress.Codec, sample []byte, warm bool) (compMBps, decompMBps, ratio float64, err error) {
	const block = stream.DefaultBlockSize
	data := b.src[:copy(b.src, sample)]
	if warm {
		if _, err := codec.Decompress(nil, codec.Compress(nil, data[:block]), block); err != nil {
			return 0, 0, 0, fmt.Errorf("warmup: %w", err)
		}
	}
	start := time.Now()
	b.comp, b.blocks = compressBlocks(codec, data, block, b.comp[:0], b.blocks[:0])
	compSec := time.Since(start).Seconds()

	start = time.Now()
	for i, c := range b.blocks {
		b.out, err = codec.Decompress(b.out[:0], c, min(block, len(data)-i*block))
		if err != nil {
			return 0, 0, 0, fmt.Errorf("decompress: %w", err)
		}
	}
	decompSec := time.Since(start).Seconds()

	mb := float64(len(data)) / 1e6
	return mb / max(compSec, 1e-9), mb / max(decompSec, 1e-9), min(float64(len(b.comp))/float64(len(data)), 1.0), nil
}

// compressRoom is the output room compressBlocks needs for n bytes cut into
// blocks of block bytes: each block's worst case, the range coder's n/8+64
// bytes past its input (the slack of stream.maxFrameSize).
func compressRoom(n, block int) int {
	return n + n/8 + 64*((n+block-1)/block)
}

// compressBlocks compresses data block by block onto out and appends each
// block's output, a slice of out, to blocks. Given room for every block's
// output in out and for every block in blocks, it allocates nothing beyond
// what the codec itself does.
func compressBlocks(codec compress.Codec, data []byte, block int, out []byte, blocks [][]byte) ([]byte, [][]byte) {
	for off := 0; off < len(data); off += block {
		prev := len(out)
		out = codec.Compress(out, data[off:min(off+block, len(data))])
		blocks = append(blocks, out[prev:])
	}
	return out, blocks
}

// RenderCalibration formats calibrated profiles next to the reference
// profile the Table II sweep uses by default.
func RenderCalibration(profiles []cloudsim.CodecProfile) string {
	refByName := map[string]cloudsim.CodecProfile{}
	for _, p := range cloudsim.ReferenceProfiles() {
		refByName[p.Name] = p
	}
	var sb strings.Builder
	sb.WriteString("--- Codec calibration: this repo's codecs vs paper-derived reference ---\n")
	fmt.Fprintf(&sb, "%-8s %-9s %12s %12s %8s %14s %10s\n",
		"level", "data", "comp MB/s", "decomp MB/s", "ratio", "ref comp MB/s", "ref ratio")
	for _, p := range profiles {
		ref := refByName[p.Name]
		for _, kind := range corpus.Kinds() {
			fmt.Fprintf(&sb, "%-8s %-9s %12.0f %12.0f %8.3f %14.0f %10.2f\n",
				p.Name, kind, p.CompMBps[kind], p.DecompMBps[kind], p.Ratio[kind], ref.CompMBps[kind], ref.Ratio[kind])
		}
	}
	return sb.String()
}
