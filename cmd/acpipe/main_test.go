package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"adaptio"
)

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
	if err := decompress(&wire, &out, 1); err != nil || out.Len() != 0 {
		t.Errorf("empty stream decoded to %d bytes, err %v", out.Len(), err)
	}
}
