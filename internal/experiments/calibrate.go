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

// Calibrate measures a ladder's codecs (stream.DefaultLadder for the paper's
// four levels) on the synthetic corpus and returns a cloudsim profile ladder
// built from the measurements. It is the live alternative to
// cloudsim.ReferenceProfiles: run the 50 GB experiments against what *this*
// machine's codecs actually deliver instead of the paper's hardware.
//
// sampleBytes is the per-measurement volume (zero means 4 MB). Measurements
// use the stream layer's 128 KB blocks, like production traffic.
func Calibrate(ladder compress.Ladder, sampleBytes int) ([]cloudsim.CodecProfile, error) {
	if err := ladder.Validate(); err != nil {
		return nil, err
	}
	if sampleBytes <= 0 {
		sampleBytes = 4 << 20
	}
	profiles := make([]cloudsim.CodecProfile, len(ladder))
	for li, lvl := range ladder {
		p := cloudsim.CodecProfile{
			Name:       lvl.Name,
			CompMBps:   map[corpus.Kind]float64{},
			DecompMBps: map[corpus.Kind]float64{},
			Ratio:      map[corpus.Kind]float64{},
		}
		for _, kind := range corpus.Kinds() {
			if err := measureCodec(p, lvl.Codec, kind, sampleBytes); err != nil {
				return nil, err
			}
		}
		profiles[li] = p
	}
	if err := cloudsim.ValidateLadder(profiles); err != nil {
		return nil, fmt.Errorf("experiments: calibrated profiles invalid: %w", err)
	}
	return profiles, nil
}

// measureCodec times codec on sampleBytes of kind and records its speeds and
// ratio under kind in p.
func measureCodec(p cloudsim.CodecProfile, codec compress.Codec, kind corpus.Kind, sampleBytes int) error {
	// Measure on the real Canterbury file when ADAPTIO_CANTERBURY_DIR is
	// set, otherwise on the synthetic stand-in, looped to the sample size.
	file, _ := corpus.LoadOrGenerate(kind, 1)
	data := make([]byte, sampleBytes)
	if _, err := io.ReadFull(corpus.NewLoopReader(file), data); err != nil {
		return err
	}
	const block = stream.DefaultBlockSize

	// Warm up once so one-time allocation costs do not skew the timing.
	warm := codec.Compress(nil, data[:block])
	if _, err := codec.Decompress(nil, warm, block); err != nil {
		return fmt.Errorf("experiments: %s/%v warmup: %w", p.Name, kind, err)
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
			return fmt.Errorf("experiments: %s/%v decompress: %w", p.Name, kind, err)
		}
	}
	decompSec := time.Since(start).Seconds()

	mb := float64(len(data)) / 1e6
	p.CompMBps[kind] = mb / max(compSec, 1e-9)
	p.DecompMBps[kind] = mb / max(decompSec, 1e-9)
	p.Ratio[kind] = min(float64(len(comp))/float64(len(data)), 1.0)
	return nil
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
