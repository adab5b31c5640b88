// Package ioload implements the paper's auxiliary load generators ("We
// created a set of small auxiliary programs to generate network and file
// I/O load", Section II-A): saturating network send/receive and file
// write/read loops. cmd/acprobe -load and -live-fig1 run them while sampling
// /proc/stat to reproduce the Figure 1 measurement live on a real machine
// (the simulated one is cmd/expdriver -fig1); the tests use them as realistic
// I/O drivers.
//
// Like the paper's programs, the generators record a timestamp after every
// 20 MB of I/O (Section II-B), from which per-chunk throughput is derived.
package ioload

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"time"
)

// ChunkBytes is the throughput-measurement granularity (paper: 20 MB).
const ChunkBytes = 20 << 20

// Result summarizes one load run.
type Result struct {
	Bytes   int64
	Elapsed time.Duration
	// ChunkMBps lists the per-20MB-chunk throughput samples.
	ChunkMBps []float64
}

// MBps returns the mean throughput.
func (r Result) MBps() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Bytes) / 1e6 / r.Elapsed.Seconds()
}

// chunkTracker accumulates the 20 MB timestamps.
type chunkTracker struct {
	res       Result
	start     time.Time
	lastMark  time.Time
	sinceMark int64
}

func newChunkTracker() *chunkTracker {
	now := time.Now()
	return &chunkTracker{start: now, lastMark: now}
}

func (c *chunkTracker) add(n int) {
	c.res.Bytes += int64(n)
	c.sinceMark += int64(n)
	for c.sinceMark >= ChunkBytes {
		now := time.Now()
		dt := now.Sub(c.lastMark).Seconds()
		if dt > 0 {
			c.res.ChunkMBps = append(c.res.ChunkMBps, ChunkBytes/1e6/dt)
		}
		c.lastMark = now
		c.sinceMark -= ChunkBytes
	}
}

func (c *chunkTracker) finish() Result {
	c.res.Elapsed = time.Since(c.start)
	return c.res
}

// zeroReader produces zero bytes forever (the cheapest saturating source:
// the cost measured is the I/O path, not data generation).
type zeroReader struct{}

func (zeroReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0
	}
	return len(p), nil
}

// NetSend connects to addr and writes continuously until ctx is cancelled
// or totalBytes have been sent (0 = until cancel).
func NetSend(ctx context.Context, addr string, totalBytes int64) (Result, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return Result{}, err
	}
	defer conn.Close()
	defer context.AfterFunc(ctx, func() { conn.Close() })()
	return pump(ctx, conn, zeroReader{}, totalBytes)
}

// NetReceive accepts one connection on ln and reads it to completion (or
// ctx cancel / totalBytes).
func NetReceive(ctx context.Context, ln net.Listener, totalBytes int64) (Result, error) {
	conn, err := ln.Accept()
	if err != nil {
		return Result{}, err
	}
	defer conn.Close()
	defer context.AfterFunc(ctx, func() { conn.Close() })()
	return pump(ctx, io.Discard, conn, totalBytes)
}

// FileWrite writes totalBytes to path using plain write(2) calls in 1 MB
// blocks, then syncs, mirroring the paper's raw-I/O writer.
func FileWrite(ctx context.Context, path string, totalBytes int64) (Result, error) {
	if totalBytes <= 0 {
		return Result{}, errors.New("ioload: FileWrite needs a positive volume")
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return Result{}, err
	}
	defer f.Close()
	res, err := pump(ctx, f, zeroReader{}, totalBytes)
	if err != nil {
		return res, err
	}
	if err := f.Sync(); err != nil {
		return res, fmt.Errorf("ioload: sync: %w", err)
	}
	return res, nil
}

// FileRead reads the file at path completely (or until ctx / totalBytes).
func FileRead(ctx context.Context, path string, totalBytes int64) (Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return Result{}, err
	}
	defer f.Close()
	return pump(ctx, io.Discard, f, totalBytes)
}

// pump moves bytes from src to dst in 1 MB blocks, tracking 20 MB chunk
// timestamps, until totalBytes (0 = unlimited), EOF, or ctx cancellation.
func pump(ctx context.Context, dst io.Writer, src io.Reader, totalBytes int64) (Result, error) {
	tracker := newChunkTracker()
	buf := make([]byte, 1<<20)
	for totalBytes <= 0 || tracker.res.Bytes < totalBytes {
		if err := ctx.Err(); err != nil {
			return tracker.finish(), nil // cancellation ends the run cleanly
		}
		want := int64(len(buf))
		if totalBytes > 0 && totalBytes-tracker.res.Bytes < want {
			want = totalBytes - tracker.res.Bytes
		}
		n, rerr := src.Read(buf[:want])
		if n > 0 {
			if _, werr := dst.Write(buf[:n]); werr != nil {
				if ctx.Err() != nil {
					return tracker.finish(), nil
				}
				return tracker.finish(), werr
			}
			tracker.add(n)
		}
		if rerr != nil {
			if rerr == io.EOF || ctx.Err() != nil {
				return tracker.finish(), nil
			}
			return tracker.finish(), rerr
		}
	}
	return tracker.finish(), nil
}

// Sink runs a discarding TCP sink on ln until ctx is cancelled; it is the
// opposite endpoint for NetSend ("we made sure that the opposite part of
// the connection was ... at least as fast as the observed virtual machine").
func Sink(ctx context.Context, ln net.Listener) {
	defer context.AfterFunc(ctx, func() { ln.Close() })()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go func() {
			defer conn.Close()
			defer context.AfterFunc(ctx, func() { conn.Close() })()
			io.Copy(io.Discard, conn)
		}()
	}
}
