package ioload_test

import (
	"context"
	"net"
	"path/filepath"
	"testing"
	"time"

	"adaptio/internal/faultio/leakcheck"
	"adaptio/internal/ioload"
)

func TestNetSendToSink(t *testing.T) {
	leakcheck.Check(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go ioload.Sink(ctx, ln)

	const volume = 64 << 20
	res, err := ioload.NetSend(ctx, ln.Addr().String(), volume)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != volume {
		t.Fatalf("sent %d of %d", res.Bytes, volume)
	}
	if res.MBps() <= 0 {
		t.Fatal("non-positive throughput")
	}
	if len(res.ChunkMBps) != volume/ioload.ChunkBytes {
		t.Fatalf("chunk samples %d, want %d", len(res.ChunkMBps), volume/ioload.ChunkBytes)
	}
}

func TestNetReceive(t *testing.T) {
	leakcheck.Check(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ctx := context.Background()
	const volume = 24 << 20
	go func() {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 1<<20)
		for sent := 0; sent < volume; sent += len(buf) {
			if _, err := conn.Write(buf); err != nil {
				return
			}
		}
	}()
	res, err := ioload.NetReceive(ctx, ln, volume)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != volume {
		t.Fatalf("received %d of %d", res.Bytes, volume)
	}
}

func TestFileWriteRead(t *testing.T) {
	leakcheck.Check(t)
	path := filepath.Join(t.TempDir(), "load.bin")
	ctx := context.Background()
	const volume = 32 << 20
	wres, err := ioload.FileWrite(ctx, path, volume)
	if err != nil {
		t.Fatal(err)
	}
	if wres.Bytes != volume {
		t.Fatalf("wrote %d of %d", wres.Bytes, volume)
	}
	rres, err := ioload.FileRead(ctx, path, 0) // read to EOF
	if err != nil {
		t.Fatal(err)
	}
	if rres.Bytes != volume {
		t.Fatalf("read %d of %d", rres.Bytes, volume)
	}
}

func TestFileWriteValidation(t *testing.T) {
	leakcheck.Check(t)
	if _, err := ioload.FileWrite(context.Background(), "/nonexistent-dir/x", 10); err == nil {
		t.Error("bad path accepted")
	}
	if _, err := ioload.FileWrite(context.Background(), filepath.Join(t.TempDir(), "x"), 0); err == nil {
		t.Error("zero volume accepted")
	}
}

func TestCancellationStopsLoad(t *testing.T) {
	leakcheck.Check(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go ioload.Sink(ctx, ln)

	done := make(chan struct{})
	go func() {
		defer close(done)
		// Unlimited volume: only cancellation ends it.
		if _, err := ioload.NetSend(ctx, ln.Addr().String(), 0); err != nil {
			t.Errorf("cancelled send errored: %v", err)
		}
	}()
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("cancellation did not stop the load generator")
	}
}
