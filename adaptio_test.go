package adaptio_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	"reflect"
	"testing"
	"time"

	"adaptio"
	"adaptio/internal/compress/lzfast"
	"adaptio/internal/compress/lzheavy"
	"adaptio/internal/compress/probe"
	"adaptio/internal/coord"
	"adaptio/internal/core"
	"adaptio/internal/corpus"
	"adaptio/internal/experiments"
	"adaptio/internal/loadgen"
	"adaptio/internal/nephele"
	"adaptio/internal/stream"
	"adaptio/internal/tunnel"
	"adaptio/internal/vclock"
)

// TestOptionsLedger pins how many settable values the product's config
// structs carry, so the next knob is a deliberate edit of this table and not
// a drive-by.
func TestOptionsLedger(t *testing.T) {
	for _, tc := range []struct {
		cfg    any
		fields int
	}{
		{stream.WriterConfig{}, 10},
		{tunnel.Config{}, 15},
		{coord.Config{}, 3},
		{core.Config{}, 6},
		{lzfast.Fast{}, 0},
		{lzfast.HC{}, 1},
		{lzheavy.Codec{}, 1},
		{probe.Config{}, 0},
		{nephele.ChannelSpec{}, 5},
		{loadgen.Config{}, 14},
		{experiments.TableIIConfig{}, 4},
	} {
		typ := reflect.TypeOf(tc.cfg)
		if got := typ.NumField(); got != tc.fields {
			t.Errorf("%v has %d fields, the ledger says %d. The rule: a new option needs two non-test callers that want different values; otherwise a constant. If that holds (or a field went), update the ledger in the same change.",
				typ, got, tc.fields)
		}
	}
}

// TestPublicRoundTrip exercises the full public API surface the README
// advertises.
func TestPublicRoundTrip(t *testing.T) {
	data := corpus.Generate(corpus.Moderate, 600<<10, 1)
	var wire bytes.Buffer
	w, err := adaptio.NewWriter(&wire, adaptio.WriterConfig{Clock: vclock.NewManual()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := adaptio.NewReader(&wire)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("public API round trip mismatch")
	}
}

func TestPublicStaticLevels(t *testing.T) {
	data := corpus.Generate(corpus.High, 256<<10, 1)
	for _, lvl := range []int{adaptio.LevelNo, adaptio.LevelLight, adaptio.LevelMedium, adaptio.LevelHeavy} {
		var wire bytes.Buffer
		w, err := adaptio.NewWriter(&wire, adaptio.WriterConfig{Static: true, StaticLevel: lvl})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := adaptio.NewReader(&wire)
		if err != nil {
			t.Fatal(err)
		}
		out, err := io.ReadAll(r)
		if err != nil || !bytes.Equal(out, data) {
			t.Fatalf("level %d round trip failed: %v", lvl, err)
		}
	}
}

func TestPublicParallelPaths(t *testing.T) {
	data := corpus.Generate(corpus.High, 1<<20, 2)
	var wire bytes.Buffer
	w, err := adaptio.NewParallelWriter(&wire, adaptio.WriterConfig{Clock: vclock.NewManual()}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := adaptio.NewReader(&wire)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	out, err := io.ReadAll(r)
	if err != nil || !bytes.Equal(out, data) {
		t.Fatalf("parallel facade round trip failed: %v", err)
	}
}

func TestPublicDecider(t *testing.T) {
	d, err := adaptio.NewDecider(adaptio.DeciderConfig{Levels: 4})
	if err != nil {
		t.Fatal(err)
	}
	lvl := d.Observe(100)
	if lvl < 0 || lvl > 3 {
		t.Fatalf("level %d out of range", lvl)
	}
}

func TestPublicLadder(t *testing.T) {
	l := adaptio.DefaultLadder()
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(l) != 4 {
		t.Fatalf("default ladder has %d levels", len(l))
	}
	if adaptio.DefaultAlpha != 0.2 {
		t.Fatalf("DefaultAlpha = %v", adaptio.DefaultAlpha)
	}
	if adaptio.DefaultBlockSize != 128<<10 {
		t.Fatalf("DefaultBlockSize = %v", adaptio.DefaultBlockSize)
	}
}

// customCodec exercises RegisterCodec: an XOR "cipher" codec, registered
// under a private ID, usable in a custom ladder and decodable by the
// standard Reader.
type customCodec struct{}

func (customCodec) ID() uint8    { return 200 }
func (customCodec) Name() string { return "xor" }

func (customCodec) Compress(dst, src []byte) []byte {
	for _, b := range src {
		dst = append(dst, b^0x5A)
	}
	return dst
}

func (customCodec) Decompress(dst, src []byte, size int) ([]byte, error) {
	if len(src) != size {
		return dst, errors.New("xor: size mismatch")
	}
	for _, b := range src {
		dst = append(dst, b^0x5A)
	}
	return dst, nil
}

func TestCustomCodecRegistration(t *testing.T) {
	adaptio.RegisterCodec(customCodec{})
	ladder := adaptio.Ladder{
		{Name: "NO", Codec: adaptio.DefaultLadder()[0].Codec},
		{Name: "XOR", Codec: customCodec{}},
	}
	var wire bytes.Buffer
	w, err := adaptio.NewWriter(&wire, adaptio.WriterConfig{
		Ladder: ladder, Static: true, StaticLevel: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("custom codec payload")
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := adaptio.NewReader(&wire)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(r)
	if err != nil || !bytes.Equal(out, data) {
		t.Fatalf("custom codec round trip failed: %v", err)
	}
}

// ExampleNewWriter demonstrates the minimal adaptive round trip.
func ExampleNewWriter() {
	var wire bytes.Buffer
	w, err := adaptio.NewWriter(&wire, adaptio.WriterConfig{Window: time.Second})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := io.WriteString(w, "data streams into the cloud"); err != nil {
		log.Fatal(err)
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}
	r, err := adaptio.NewReader(&wire)
	if err != nil {
		log.Fatal(err)
	}
	out, err := io.ReadAll(r)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(out))
	// Output: data streams into the cloud
}
