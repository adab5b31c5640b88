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

	var compBytes int
	var blocks [][]byte
	start := time.Now()
	for off := 0; off < len(data); off += block {
		end := min(off+block, len(data))
		c := codec.Compress(nil, data[off:end])
		compBytes += len(c)
		blocks = append(blocks, c)
	}
	compSec := time.Since(start).Seconds()

	start = time.Now()
	var out []byte
	for i, c := range blocks {
		var err error
		out, err = codec.Decompress(out[:0], c, min(block, len(data)-i*block))
		if err != nil {
			return CodecMeasurement{}, fmt.Errorf("experiments: %s/%v decompress: %w", name, kind, err)
		}
	}
	decompSec := time.Since(start).Seconds()
	_ = out

	mb := float64(len(data)) / 1e6
	m := CodecMeasurement{
		Level:      name,
		Kind:       kind,
		CompMBps:   mb / max(compSec, 1e-9),
		DecompMBps: mb / max(decompSec, 1e-9),
		Ratio:      min(float64(compBytes)/float64(len(data)), 1.0),
	}
	return m, nil
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
