package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"adaptio/internal/compress"
	"adaptio/internal/compress/lzfast"
	"adaptio/internal/compress/lzheavy"
	"adaptio/internal/compress/probe"
	"adaptio/internal/stream"
)

const (
	// Bytes each codec rung compresses. The slower codecs get less, in
	// whole cycles of the mixed corpus's three stripes.
	ladderHCBytes    = 6 << 20
	ladderHeavyBytes = 3 << 20
	// ladderStreamBytes is what each in-process stream rung moves.
	ladderStreamBytes = 64 << 20
	// ladderNetRun and ladderNetWarm size the loopback and tunnel rungs.
	ladderNetRun  = 1500 * time.Millisecond
	ladderNetWarm = 300 * time.Millisecond
)

// runLadder pushes the workload's own bytes through successive rungs of the
// data path, every stream rung at static LIGHT, and returns each rung's
// rate and its tax: 1 - rung / the rung below.
func runLadder(in *inputs, workers int) (map[string]float64, error) {
	r := make(map[string]float64)
	data := in.corpus

	for _, c := range []struct {
		codec      compress.Codec
		bytes      int
		decompress bool
	}{
		{lzfast.Fast{}, len(data), true},
		{lzfast.HC{}, ladderHCBytes, true},
		{lzheavy.Codec{}, ladderHeavyBytes, false},
	} {
		comp, decomp, ratio, err := codecRung(c.codec, data[:min(len(data), c.bytes)])
		if err != nil {
			return nil, err
		}
		name := "compress." + c.codec.Name()
		r[name+".compress_mb_s"] = comp
		r[name+".ratio"] = ratio
		if c.decompress {
			r[name+".decompress_mb_s"] = decomp
		}
	}

	pc := probe.Default()
	hopeless, blocks := 0, 0
	start := time.Now()
	forBlocks(data, func(b []byte) {
		blocks++
		if pc.Hopeless(b) {
			hopeless++
		}
	})
	r["compress.probe.scan_mb_s"] = mbps(len(data), time.Since(start))
	r["compress.probe.hopeless_share"] = ratio(float64(hopeless), float64(blocks))

	light := stream.WriterConfig{Static: true, StaticLevel: stream.LevelLight}
	// Each stream rung moves the corpus once untimed (pools fill, worker
	// goroutines spread over the processors), then loops times on the clock.
	loops := (ladderStreamBytes + len(data) - 1) / len(data)
	timed := loops * len(data)
	write := func(w io.WriteCloser) (float64, error) {
		var start time.Time
		for l := 0; l <= loops; l++ {
			if l == 1 {
				start = time.Now()
			}
			for off := 0; off < len(data); off += opBytes {
				if _, err := w.Write(data[off:min(off+opBytes, len(data))]); err != nil {
					return 0, err
				}
			}
		}
		if err := w.Close(); err != nil {
			return 0, err
		}
		return mbps(timed, time.Since(start)), nil
	}
	read := func(rd io.Reader) (float64, error) {
		buf := make([]byte, opBytes)
		if _, err := io.ReadFull(rd, make([]byte, len(data))); err != nil {
			return 0, err
		}
		start := time.Now()
		total := 0
		for {
			n, err := rd.Read(buf)
			total += n
			if err == io.EOF {
				break
			}
			if err != nil {
				return 0, err
			}
		}
		if total != timed {
			return 0, fmt.Errorf("ladder: read %d of %d bytes", total, timed)
		}
		return mbps(total, time.Since(start)), nil
	}

	w, err := stream.NewWriter(io.Discard, light)
	if err != nil {
		return nil, err
	}
	if r["stream.writer.mb_s"], err = write(w); err != nil {
		return nil, err
	}
	pw, err := stream.NewParallelWriter(io.Discard, light, workers)
	if err != nil {
		return nil, err
	}
	if r["stream.pwriter.mb_s"], err = write(pw); err != nil {
		return nil, err
	}

	var wireBytes bytes.Buffer
	wireBytes.Grow(timed + len(data))
	if w, err = stream.NewWriter(&wireBytes, light); err != nil {
		return nil, err
	}
	if _, err := write(w); err != nil {
		return nil, err
	}
	sr, err := stream.NewReader(bytes.NewReader(wireBytes.Bytes()))
	if err != nil {
		return nil, err
	}
	if r["stream.reader.mb_s"], err = read(sr); err != nil {
		return nil, err
	}
	pr, err := stream.NewParallelReader(bytes.NewReader(wireBytes.Bytes()), workers)
	if err != nil {
		return nil, err
	}
	r["stream.preader.mb_s"], err = read(pr)
	pr.Close()
	if err != nil {
		return nil, err
	}
	wireBytes = bytes.Buffer{}

	// The network rungs are the workloads' own paths, run briefly.
	for _, rung := range []struct {
		metric string
		open   func(*env, *inputs) (*session, error)
	}{
		{"stream.loopback.mb_s", func(e *env, in *inputs) (*session, error) { return openStream(e, in, serialLight) }},
		{"tunnel.relay.mb_s", openRelay},
	} {
		e := &env{run: ladderNetRun, warm: ladderNetWarm, workers: workers, static: -1}
		m, err := measure(&workload{
			name:   rung.metric,
			inputs: func(uint64, *env) *inputs { return in },
			open:   rung.open,
		}, 0, e, 1)
		if err != nil {
			return nil, err
		}
		if len(m.errs) > 0 {
			return nil, fmt.Errorf("ladder: %s: %w", rung.metric, m.errs[0])
		}
		r[rung.metric] = m.goodputMBps()
	}

	r["stream.writer.tax"] = tax(r["stream.writer.mb_s"], r["compress.lzfast.compress_mb_s"])
	r["stream.reader.tax"] = tax(r["stream.reader.mb_s"], r["compress.lzfast.decompress_mb_s"])
	r["stream.pwriter.speedup"] = ratio(r["stream.pwriter.mb_s"], r["stream.writer.mb_s"])
	r["stream.loopback.tax"] = tax(r["stream.loopback.mb_s"], r["stream.writer.mb_s"])
	r["tunnel.relay.tax"] = tax(r["tunnel.relay.mb_s"], r["stream.loopback.mb_s"])
	return r, nil
}

// tax is the share of the lower rung's rate that the rung above loses.
func tax(rung, below float64) float64 {
	if below == 0 {
		return 0
	}
	return 1 - rung/below
}

func mbps(n int, d time.Duration) float64 { return float64(n) / 1e6 / d.Seconds() }

// forBlocks calls f with each stream block of data.
func forBlocks(data []byte, f func([]byte)) {
	for off := 0; off < len(data); off += stream.DefaultBlockSize {
		f(data[off:min(off+stream.DefaultBlockSize, len(data))])
	}
}

// codecRung compresses and decompresses data block by block, as the stream
// layer would, and checks the round trip.
func codecRung(c compress.Codec, data []byte) (compMBps, decompMBps, wireRatio float64, err error) {
	var packed [][]byte
	forBlocks(data, func(b []byte) { packed = append(packed, c.Compress(nil, b)) })
	scratch := make([]byte, 0, 2*stream.DefaultBlockSize)

	start := time.Now()
	forBlocks(data, func(b []byte) { scratch = c.Compress(scratch[:0], b) })
	compMBps = mbps(len(data), time.Since(start))

	packedBytes, i := 0, 0
	start = time.Now()
	forBlocks(data, func(b []byte) {
		packedBytes += len(packed[i])
		var derr error
		if scratch, derr = c.Decompress(scratch[:0], packed[i], len(b)); derr != nil && err == nil {
			err = derr
		}
		i++
	})
	decompMBps = mbps(len(data), time.Since(start))
	if err != nil {
		return 0, 0, 0, fmt.Errorf("ladder: %s: %w", c.Name(), err)
	}
	// The last block stands for the round-trip check; the workloads verify
	// every byte end to end.
	if last := data[len(data)-len(scratch):]; !bytes.Equal(scratch, last) {
		return 0, 0, 0, fmt.Errorf("ladder: %s: round trip differs", c.Name())
	}
	return compMBps, decompMBps, float64(packedBytes) / float64(len(data)), nil
}
