package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"adaptio/internal/cloudsim"
	"adaptio/internal/compress"
	"adaptio/internal/corpus"
	"adaptio/internal/stream"
)

// CodecMeasurement is one live measurement of a codec on one corpus kind.
type CodecMeasurement struct {
	Level      string
	Kind       corpus.Kind
	CompMBps   float64
	DecompMBps float64
	Ratio      float64
}

// Calibrate measures this repository's own codecs (the default ladder) on
// the synthetic corpus and returns both the raw measurements and a
// cloudsim profile ladder built from them. It is the live alternative to
// cloudsim.ReferenceProfiles: run the 50 GB experiments against what *this*
// machine's codecs actually deliver instead of the paper's hardware.
//
// sampleBytes is the per-measurement volume (zero means 4 MB). Measurements
// use the stream layer's 128 KB blocks, like production traffic.
func Calibrate(sampleBytes int) ([]CodecMeasurement, []cloudsim.CodecProfile, error) {
	return CalibrateLadder(stream.DefaultLadder(), sampleBytes)
}

func measureCodec(name string, codec compress.Codec, kind corpus.Kind, sampleBytes int) (CodecMeasurement, error) {
	// Measure on the real Canterbury file when ADAPTIO_CANTERBURY_DIR is
	// set, otherwise on the synthetic stand-in, looped to the sample size.
	file, _ := corpus.LoadOrGenerate(kind, 1)
	data := make([]byte, sampleBytes)
	if _, err := io.ReadFull(corpus.NewLoopReader(file), data); err != nil {
		return CodecMeasurement{}, err
	}
	const block = stream.DefaultBlockSize

	// Warm up once so one-time allocation costs do not skew the timing.
	warm := codec.Compress(nil, data[:block])
	if _, err := codec.Decompress(nil, warm, block); err != nil {
		return CodecMeasurement{}, fmt.Errorf("experiments: %s/%v warmup: %w", name, kind, err)
	}

	// The output buffers are allocated before the clock starts: a fresh one
	// per block would time the allocator and the collector, not the codec.
	comp := make([]byte, 0, compressRoom(len(data), block))
	blocks := make([][]byte, 0, (len(data)+block-1)/block)
	out := make([]byte, 0, block)
	start := time.Now()
	comp, blocks = compressBlocks(codec, data, block, comp, blocks)
	compSec := time.Since(start).Seconds()

	start = time.Now()
	for i, c := range blocks {
		var err error
		out, err = codec.Decompress(out[:0], c, min(block, len(data)-i*block))
		if err != nil {
			return CodecMeasurement{}, fmt.Errorf("experiments: %s/%v decompress: %w", name, kind, err)
		}
	}
	decompSec := time.Since(start).Seconds()

	mb := float64(len(data)) / 1e6
	m := CodecMeasurement{
		Level:      name,
		Kind:       kind,
		CompMBps:   mb / max(compSec, 1e-9),
		DecompMBps: mb / max(decompSec, 1e-9),
		Ratio:      min(float64(len(comp))/float64(len(data)), 1.0),
	}
	return m, nil
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

// RenderCalibration formats the live measurements next to the reference
// profile the Table II sweep uses.
func RenderCalibration(ms []CodecMeasurement) string {
	ref := cloudsim.ReferenceProfiles()
	refByName := map[string]cloudsim.CodecProfile{}
	for _, p := range ref {
		refByName[p.Name] = p
	}
	var sb strings.Builder
	sb.WriteString("--- Codec calibration: this repo's codecs vs paper-derived reference ---\n")
	fmt.Fprintf(&sb, "%-8s %-9s %12s %12s %8s %14s %10s\n",
		"level", "data", "comp MB/s", "decomp MB/s", "ratio", "ref comp MB/s", "ref ratio")
	for _, m := range ms {
		rp, ok := refByName[m.Level]
		refComp, refRatio := 0.0, 0.0
		if ok {
			refComp = rp.CompMBps[m.Kind]
			refRatio = rp.Ratio[m.Kind]
		}
		fmt.Fprintf(&sb, "%-8s %-9s %12.0f %12.0f %8.3f %14.0f %10.2f\n",
			m.Level, m.Kind, m.CompMBps, m.DecompMBps, m.Ratio, refComp, refRatio)
	}
	return sb.String()
}
