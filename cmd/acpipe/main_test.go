package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"adaptio"
	"adaptio/internal/corpus"
)

// TestMain lets a test run the command itself: with ACPIPE_ARGS set, the
// test binary is acpipe with those arguments.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("ACPIPE_ARGS"); ok {
		os.Args = append([]string{"acpipe"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runAcpipe runs the command with args on stdin and returns its stdout.
func runAcpipe(t *testing.T, args string, stdin []byte) ([]byte, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "ACPIPE_ARGS="+args)
	cmd.Stdin = bytes.NewReader(stdin)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		err = fmt.Errorf("%w: %s", err, stderr.Bytes())
	}
	return out, err
}

// TestDecompressAcceptsWorkers: -p is a compress-side flag, but `acpipe -d
// -p 4` is still accepted and decodes to exactly what `acpipe -d` does.
func TestDecompressAcceptsWorkers(t *testing.T) {
	src := corpus.Generate(corpus.Moderate, 600<<10, 4)
	var wire bytes.Buffer
	if err := compressStream(bytes.NewReader(src), &wire, adaptio.LevelLight, 2*time.Second, adaptio.DefaultAlpha, 2, nil); err != nil {
		t.Fatal(err)
	}
	for _, args := range []string{"-d", "-d -p 4"} {
		out, err := runAcpipe(t, args, wire.Bytes())
		if err != nil {
			t.Fatalf("acpipe %s: %v", args, err)
		}
		if !bytes.Equal(out, src) {
			t.Errorf("acpipe %s decoded %d bytes that differ from the %d-byte source", args, len(out), len(src))
		}
	}
}

// TestCompressFlags: `acpipe -p 2` compresses on NewParallelWriter's two
// workers and round-trips; a worker count, level or α no writer can run on
// exits 1, and so does an explicit -alpha beside -static N, which has no
// tolerance band to set.
func TestCompressFlags(t *testing.T) {
	src := corpus.Generate(corpus.Moderate, 600<<10, 5)
	wire, err := runAcpipe(t, "-p 2", src)
	if err != nil {
		t.Fatalf("acpipe -p 2: %v", err)
	}
	var out bytes.Buffer
	if err := decompress(bytes.NewReader(wire), &out); err != nil || !bytes.Equal(out.Bytes(), src) {
		t.Fatalf("acpipe -p 2 did not round-trip: %d of %d bytes, err %v", out.Len(), len(src), err)
	}
	for _, args := range []string{"-p -1", "-static 9", "-alpha -1", "-static 1 -alpha 0.3", "-static 0 -alpha 0.2"} {
		_, err := runAcpipe(t, args, src)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("acpipe %s: %v, want exit status 1", args, err)
		}
	}
}

// TestEmptyStreamStats: `acpipe -stats < /dev/null` used to divide the wire
// bytes by zero application bytes and print "ratio NaN". An empty stream has
// ratio 1 (Stats.Ratio), still decodes, and reports no blocks.
func TestEmptyStreamStats(t *testing.T) {
	var wire, stats bytes.Buffer
	if err := compressStream(strings.NewReader(""), &wire, adaptio.Adaptive, 2*time.Second, adaptio.DefaultAlpha, 1, &stats); err != nil {
		t.Fatal(err)
	}
	want := "acpipe: 0 app bytes -> 0 wire bytes (ratio 1.000), 0 blocks, 0 switches\n"
	if stats.String() != want {
		t.Errorf("stats = %q, want %q", stats.String(), want)
	}
	var out bytes.Buffer
	if err := decompress(&wire, &out); err != nil || out.Len() != 0 {
		t.Errorf("empty stream decoded to %d bytes, err %v", out.Len(), err)
	}
}
