package corpus_test

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"adaptio/internal/compress"
	"adaptio/internal/compress/flatecodec"
	"adaptio/internal/compress/lzfast"
	"adaptio/internal/compress/lzheavy"
	"adaptio/internal/corpus"
)

func TestKindStringsAndFiles(t *testing.T) {
	cases := []struct {
		kind corpus.Kind
		name string
		file string
		size int
	}{
		{corpus.High, "HIGH", "ptt5", 513216},
		{corpus.Moderate, "MODERATE", "alice29.txt", 152089},
		{corpus.Low, "LOW", "image.jpg", 256000},
	}
	for _, c := range cases {
		if c.kind.String() != c.name {
			t.Errorf("String() = %q, want %q", c.kind.String(), c.name)
		}
		if c.kind.FileName() != c.file {
			t.Errorf("FileName() = %q, want %q", c.kind.FileName(), c.file)
		}
		if c.kind.FileSize() != c.size {
			t.Errorf("FileSize() = %d, want %d", c.kind.FileSize(), c.size)
		}
	}
	if corpus.Kind(99).String() == "" || corpus.Kind(99).FileName() != "unknown" {
		t.Error("unknown kind misbehaves")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	for _, kind := range corpus.Kinds() {
		a := corpus.Generate(kind, 100000, 42)
		b := corpus.Generate(kind, 100000, 42)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: generation not deterministic", kind)
		}
		c := corpus.Generate(kind, 100000, 43)
		if bytes.Equal(a, c) {
			t.Errorf("%s: different seeds produced identical data", kind)
		}
	}
}

func TestGenerateExactLength(t *testing.T) {
	prop := func(n uint16, seed uint64) bool {
		for _, kind := range corpus.Kinds() {
			if got := len(corpus.Generate(kind, int(n), seed)); got != int(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateFileSizes(t *testing.T) {
	for _, kind := range corpus.Kinds() {
		if got := len(corpus.GenerateFile(kind, 1)); got != kind.FileSize() {
			t.Errorf("%s: file size %d, want %d", kind, got, kind.FileSize())
		}
	}
}

// TestCompressionRatioBands pins the generators to the paper's stated
// compressibility (Section IV-A): ptt5 compresses to 10–15 % with common
// libraries, alice29.txt to 30–50 %, image.jpg to 90–95 %. We allow slack at
// the edges because four different codecs bracket the "common library" point.
func TestCompressionRatioBands(t *testing.T) {
	type band struct{ lo, hi float64 }
	bands := map[corpus.Kind]band{
		corpus.High:     {0.05, 0.20},
		corpus.Moderate: {0.28, 0.65},
		corpus.Low:      {0.85, 1.00},
	}
	codecs := []compress.Codec{lzfast.Fast{}, lzfast.HC{}, flatecodec.Codec{}, lzheavy.Codec{}}
	const block = 128 << 10
	for kind, b := range bands {
		file := corpus.GenerateFile(kind, 1)
		for _, c := range codecs {
			var comp int
			for off := 0; off < len(file); off += block {
				end := off + block
				if end > len(file) {
					end = len(file)
				}
				comp += len(c.Compress(nil, file[off:end]))
			}
			ratio := float64(comp) / float64(len(file))
			if ratio < b.lo || ratio > b.hi {
				t.Errorf("%s/%s: ratio %.3f outside band [%.2f, %.2f]",
					kind, c.Name(), ratio, b.lo, b.hi)
			}
		}
	}
}

// TestRatioOrderingAcrossLevels asserts the level-ladder premise: heavier
// levels never compress worse than lighter ones on compressible data.
func TestRatioOrderingAcrossLevels(t *testing.T) {
	for _, kind := range []corpus.Kind{corpus.High, corpus.Moderate} {
		src := corpus.GenerateFile(kind, 1)[:128<<10]
		fast := len(lzfast.Fast{}.Compress(nil, src))
		hc := len(lzfast.HC{}.Compress(nil, src))
		heavy := len(lzheavy.Codec{}.Compress(nil, src))
		if !(heavy < hc && hc < fast) {
			t.Errorf("%s: ratio ordering violated: heavy=%d hc=%d fast=%d", kind, heavy, hc, fast)
		}
	}
}

func TestFileReaderLoops(t *testing.T) {
	r := corpus.NewFileReader(corpus.Moderate, 7)
	file := corpus.GenerateFile(corpus.Moderate, 7)
	// Read two full file lengths plus a bit; content must repeat exactly.
	buf := make([]byte, 2*len(file)+100)
	if _, err := io.ReadFull(r, buf); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(buf[:len(file)], file) {
		t.Fatal("first pass differs from generated file")
	}
	if !bytes.Equal(buf[len(file):2*len(file)], file) {
		t.Fatal("reader does not loop the file")
	}
}

func TestLoopReader(t *testing.T) {
	r := corpus.NewLoopReader([]byte("abc"))
	buf := make([]byte, 8)
	if _, err := io.ReadFull(r, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "abcabcab" {
		t.Fatalf("loop reader produced %q", buf)
	}
}

func TestLoopReaderPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty loop content")
		}
	}()
	corpus.NewLoopReader(nil)
}

func TestAlternatingReaderSwitchesExactly(t *testing.T) {
	const every = 1000
	r := corpus.NewAlternatingReader([]corpus.Kind{corpus.High, corpus.Low}, every, 5)
	// Reference streams with the same seeds.
	highRef := make([]byte, every)
	lowRef := make([]byte, every)
	if _, err := io.ReadFull(corpus.NewFileReader(corpus.High, 5), highRef); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(corpus.NewFileReader(corpus.Low, 6), lowRef); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 2*every)
	if _, err := io.ReadFull(r, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:every], highRef) {
		t.Fatal("first phase is not the HIGH stream")
	}
	if !bytes.Equal(got[every:], lowRef) {
		t.Fatal("second phase is not the LOW stream")
	}
}

func TestAlternatingReaderNeverCrossesBoundary(t *testing.T) {
	r := corpus.NewAlternatingReader([]corpus.Kind{corpus.High, corpus.Low}, 512, 1)
	total := 0
	buf := make([]byte, 300)
	for total < 5000 {
		n, err := r.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		// A single read must never span a 512-byte phase boundary.
		if (total%512)+n > 512 {
			t.Fatalf("read of %d at offset %d crossed phase boundary", n, total)
		}
		total += n
	}
}

func TestAlternatingReaderValidation(t *testing.T) {
	for _, f := range []func(){
		func() { corpus.NewAlternatingReader(nil, 10, 1) },
		func() { corpus.NewAlternatingReader([]corpus.Kind{corpus.High}, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for invalid parameters")
				}
			}()
			f()
		}()
	}
}

func TestLoadOrGenerate(t *testing.T) {
	// Without the env var: synthetic data.
	t.Setenv(corpus.CanterburyEnv, "")
	data, real := corpus.LoadOrGenerate(corpus.High, 1)
	if real || !bytes.Equal(data, corpus.GenerateFile(corpus.High, 1)) {
		t.Fatal("expected synthetic fallback")
	}
	// With the env var pointing at a directory containing the named file:
	// the real bytes.
	dir := t.TempDir()
	want := []byte("real canterbury bytes")
	if err := os.WriteFile(filepath.Join(dir, "alice29.txt"), want, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Setenv(corpus.CanterburyEnv, dir)
	data, real = corpus.LoadOrGenerate(corpus.Moderate, 1)
	if !real || !bytes.Equal(data, want) {
		t.Fatalf("real file not loaded: real=%v", real)
	}
	// Missing file inside the directory: fall back without error.
	data, real = corpus.LoadOrGenerate(corpus.Low, 1)
	if real || len(data) != corpus.Low.FileSize() {
		t.Fatal("expected synthetic fallback for missing file")
	}
}

func TestHighDataIsMostlyZero(t *testing.T) {
	data := corpus.Generate(corpus.High, 1<<20, 3)
	zeros := 0
	for _, b := range data {
		if b == 0 {
			zeros++
		}
	}
	frac := float64(zeros) / float64(len(data))
	if frac < 0.70 {
		t.Fatalf("fax-like data only %.0f%% white; expected mostly-white page", frac*100)
	}
}

func TestModerateDataIsASCIIText(t *testing.T) {
	data := corpus.Generate(corpus.Moderate, 1<<20, 3)
	for i, b := range data {
		printable := b >= 32 && b < 127 || b == '\n'
		if !printable {
			t.Fatalf("non-text byte 0x%02x at offset %d", b, i)
		}
	}
	if !bytes.Contains(data, []byte(" the ")) {
		t.Fatal("text does not look like English")
	}
}

func TestLowDataHasJPEGStuffing(t *testing.T) {
	data := corpus.Generate(corpus.Low, 1<<20, 3)
	// In an entropy-coded JPEG segment every 0xFF is followed by 0x00 or a
	// marker byte (0xD0-0xD7 restarts here).
	for i := 0; i < len(data)-1; i++ {
		if data[i] == 0xFF {
			next := data[i+1]
			if next != 0x00 && (next < 0xD0 || next > 0xD7) {
				t.Fatalf("unstuffed 0xFF at offset %d (next=0x%02x)", i, next)
			}
			i++
		}
	}
}

func TestParseMix(t *testing.T) {
	cases := []struct {
		spec string
		want []corpus.Kind
		ok   bool
	}{
		{"", corpus.Kinds(), true},
		{"high,low", []corpus.Kind{corpus.High, corpus.Low}, true},
		{"HIGH=2, moderate", []corpus.Kind{corpus.High, corpus.High, corpus.Moderate}, true},
		{"low=3", []corpus.Kind{corpus.Low, corpus.Low, corpus.Low}, true},
		{"ptt5,image.jpg", []corpus.Kind{corpus.High, corpus.Low}, true},
		{"bogus", nil, false},
		{"high=0", nil, false},
		{"high=x", nil, false},
		{"high=2000000000", nil, false},
		{"high=600,low=401", nil, false},
	}
	for _, c := range cases {
		got, err := corpus.ParseMix(c.spec)
		if c.ok != (err == nil) {
			t.Fatalf("ParseMix(%q) err = %v, want ok=%v", c.spec, err, c.ok)
		}
		if !c.ok {
			continue
		}
		if len(got) != len(c.want) {
			t.Fatalf("ParseMix(%q) = %v, want %v", c.spec, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("ParseMix(%q)[%d] = %v, want %v", c.spec, i, got[i], c.want[i])
			}
		}
	}
}
