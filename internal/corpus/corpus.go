// Package corpus generates deterministic synthetic test data mirroring the
// three files the paper's evaluation transmits (Section IV-A):
//
//   - High: the Canterbury Corpus file ptt5, a CCITT fax bilevel image that
//     common compressors shrink to 10–15 % of its original size;
//   - Moderate: alice29.txt, English prose with a 30–50 % compression ratio;
//   - Low: a ~250 KB JPEG image compressing only to 90–95 %.
//
// The real files cannot be shipped, so the generators synthesize data with
// the same statistical character: long white runs with sparse line structure
// for the fax image, Zipf-weighted English-like prose for the text, and
// high-entropy data with JPEG-style marker stuffing for the image. The codec
// test suite pins the resulting compression ratios to the paper's bands.
//
// Like the paper's sender task, which "repeatedly wrote the respective test
// files to the network channel", NewFileReader loops a single generated file
// of the canonical size.
package corpus

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Kind selects a compressibility class.
type Kind int

// The three compressibility classes of Section IV-A.
const (
	High     Kind = iota // ptt5-like fax image, ratio ~0.10–0.15
	Moderate             // alice29.txt-like prose, ratio ~0.30–0.50
	Low                  // image.jpg-like entropy data, ratio ~0.90–0.95
)

// String returns the paper's label for the kind.
func (k Kind) String() string {
	switch k {
	case High:
		return "HIGH"
	case Moderate:
		return "MODERATE"
	case Low:
		return "LOW"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// FileName returns the name of the corresponding paper file.
func (k Kind) FileName() string {
	switch k {
	case High:
		return "ptt5"
	case Moderate:
		return "alice29.txt"
	case Low:
		return "image.jpg"
	default:
		return "unknown"
	}
}

// FileSize returns the canonical size of the corresponding paper file in
// bytes (ptt5 and alice29.txt from the Canterbury Corpus, image.jpg "about
// 250 KB" per the paper).
func (k Kind) FileSize() int {
	switch k {
	case High:
		return 513216
	case Moderate:
		return 152089
	case Low:
		return 256000
	default:
		return 0
	}
}

// Kinds lists all compressibility classes in the paper's order.
func Kinds() []Kind { return []Kind{High, Moderate, Low} }

// ParseKind parses a compressibility-class name ("high", "moderate", "low",
// case-insensitive; the paper file names work too).
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "high", "ptt5":
		return High, nil
	case "moderate", "alice29.txt", "text":
		return Moderate, nil
	case "low", "image.jpg", "jpeg":
		return Low, nil
	default:
		return 0, fmt.Errorf("corpus: unknown kind %q (want high, moderate or low)", s)
	}
}

// maxMixWeight caps the sum of a mix's weights, ParseMix's result length.
const maxMixWeight = 1000

// ParseMix parses a workload-mix spec into a weighted kind cycle for load
// generation (cmd/acload -mix): a comma-separated list of kind names, each
// optionally weighted with "=N" ("high,low" or "high=3,low=1"). The result
// repeats each kind weight times, so uniform sampling over it reproduces
// the requested ratio; as a spec can come from a file, the weights sum to at
// most maxMixWeight. An empty spec means all three classes, equally
// weighted.
func ParseMix(spec string) ([]Kind, error) {
	if strings.TrimSpace(spec) == "" {
		return Kinds(), nil
	}
	var mix []Kind
	for _, part := range strings.Split(spec, ",") {
		name, weightStr, weighted := strings.Cut(part, "=")
		weight, err := 1, error(nil)
		if weighted {
			weight, err = strconv.Atoi(strings.TrimSpace(weightStr))
		}
		if err != nil || weight < 1 || weight > maxMixWeight-len(mix) {
			return nil, fmt.Errorf("corpus: bad mix weight %q in %q (the weights sum to at most %d)", weightStr, part, maxMixWeight)
		}
		kind, err := ParseKind(name)
		if err != nil {
			return nil, err
		}
		for i := 0; i < weight; i++ {
			mix = append(mix, kind)
		}
	}
	return mix, nil
}

// rng is a splitmix64 generator: tiny, fast and stable across Go releases,
// so corpus bytes are reproducible forever given (kind, seed).
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng { return &rng{state: seed ^ 0x9E3779B97F4A7C15} }

func (r *rng) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int {
	return int(r.next() % uint64(n))
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

// Generate returns n bytes of the given kind, deterministic for (kind, seed).
func Generate(kind Kind, n int, seed uint64) []byte {
	out := make([]byte, 0, n)
	g := newGenerator(kind, seed)
	for len(out) < n {
		out = g.append(out, n-len(out))
	}
	return out[:n]
}

// GenerateFile returns one file of the canonical size for the kind.
func GenerateFile(kind Kind, seed uint64) []byte {
	return Generate(kind, kind.FileSize(), seed)
}

// generator produces data incrementally.
type generator interface {
	// append appends up to max bytes (at least 1) to dst.
	append(dst []byte, max int) []byte
}

func newGenerator(kind Kind, seed uint64) generator {
	switch kind {
	case High:
		return &faxGenerator{r: newRNG(seed)}
	case Moderate:
		return newTextGenerator(seed)
	case Low:
		return &entropyGenerator{r: newRNG(seed)}
	default:
		panic(fmt.Sprintf("corpus: unknown kind %d", int(kind)))
	}
}

// ---------- HIGH: fax-like bilevel image ----------

// faxGenerator emits mostly-white scanline data with sparse, vertically
// correlated black structures, like a scanned text page: long zero runs
// interrupted by short repeating ink patterns.
type faxGenerator struct {
	r *rng
	// pattern is the current "text line" ink pattern, reused across
	// several rows to create the vertical correlation real fax pages have.
	pattern  []byte
	rowsLeft int
}

const faxRowBytes = 216 // 1728 px / 8, the CCITT G3 scan width

func (g *faxGenerator) append(dst []byte, max int) []byte {
	row := make([]byte, faxRowBytes)
	if g.rowsLeft == 0 {
		// Start a new band: either blank space or a text band.
		if g.r.float() < 0.35 {
			g.pattern = nil // blank band
			g.rowsLeft = 4 + g.r.intn(24)
		} else {
			// A text line: a short ink pattern placed at a few
			// positions across the row.
			p := make([]byte, 2+g.r.intn(5))
			for i := range p {
				p[i] = byte(g.r.next())
			}
			g.pattern = p
			g.rowsLeft = 6 + g.r.intn(10)
		}
	}
	g.rowsLeft--
	if g.pattern != nil {
		// Stamp the pattern at regular positions with slight jitter.
		step := 24 + g.r.intn(8)
		for x := g.r.intn(8); x+len(g.pattern) < faxRowBytes; x += step {
			copy(row[x:], g.pattern)
		}
	}
	// Scanner noise: isolated specks that appear on real fax scans. This
	// is what keeps the data from compressing far below the 10–15 % band
	// the paper reports for ptt5.
	specks := 3 + g.r.intn(4)
	for i := 0; i < specks; i++ {
		x := g.r.intn(faxRowBytes - 2)
		row[x] = byte(g.r.next())
		if g.r.intn(2) == 0 {
			row[x+1] = byte(g.r.next())
		}
	}
	if max < len(row) {
		row = row[:max]
	}
	return append(dst, row...)
}

// ---------- MODERATE: English-like prose ----------

// vocabulary is a Zipf-weighted word list; common words first. The generator
// samples rank r with probability proportional to 1/(r+2), which matches the
// heavy-tailed word distribution of natural English closely enough for LZ
// compressors to land in the paper's 30–50 % band.
var vocabulary = []string{
	"the", "and", "to", "of", "a", "she", "it", "said", "in", "was",
	"you", "that", "as", "her", "at", "with", "on", "all", "had", "but",
	"alice", "for", "so", "be", "not", "very", "what", "this", "they", "little",
	"he", "out", "is", "down", "up", "one", "about", "then", "were", "went",
	"like", "know", "would", "when", "could", "there", "king", "them", "began",
	"queen", "time", "see", "how", "well", "who", "me", "thought", "into",
	"turtle", "your", "do", "off", "its", "round", "again", "have", "no",
	"way", "rabbit", "head", "voice", "looked", "mock", "quite", "gryphon",
	"first", "never", "herself", "get", "or", "thing", "say", "great", "hatter",
	"just", "some", "took", "large", "duchess", "than", "now", "more", "other",
	"over", "under", "much", "here", "once", "door", "eyes", "before", "after",
	"thing", "found", "made", "might", "come", "back", "think", "their", "got",
	"moment", "words", "long", "course", "replied", "nothing", "while", "last",
	"dormouse", "white", "things", "cat", "old", "three", "look", "curious",
	"tone", "seemed", "same", "day", "make", "march", "hare", "table", "two",
	"caterpillar", "poor", "garden", "any", "cried", "suddenly", "because",
	"mouse", "such", "talking", "rather", "right", "tell", "wonder", "soon",
	"wish", "himself", "remark", "side", "sort", "added", "only", "minute",
}

type textGenerator struct {
	r           *rng
	col         int
	wordsInSent int
	sentLen     int
	sentsInPara int
	paraLen     int
	startOfSent bool
}

func newTextGenerator(seed uint64) *textGenerator {
	g := &textGenerator{r: newRNG(seed), startOfSent: true}
	g.sentLen = 5 + g.r.intn(11)
	g.paraLen = 3 + g.r.intn(5)
	return g
}

// zipfWord samples a word by Zipf rank.
func (g *textGenerator) zipfWord() string {
	// Inverse-CDF sampling over weights 1/(r+2) is approximated by
	// exponentiating a uniform variate; cheap and close enough.
	u := g.r.float()
	idx := int(u * u * u * float64(len(vocabulary)))
	if idx >= len(vocabulary) {
		idx = len(vocabulary) - 1
	}
	return vocabulary[idx]
}

func (g *textGenerator) append(dst []byte, max int) []byte {
	var piece []byte
	w := g.zipfWord()
	if g.startOfSent {
		piece = append(piece, w[0]-'a'+'A')
		piece = append(piece, w[1:]...)
		g.startOfSent = false
	} else {
		piece = append(piece, w...)
	}
	g.wordsInSent++
	if g.wordsInSent >= g.sentLen {
		switch g.r.intn(10) {
		case 0:
			piece = append(piece, '!')
		case 1:
			piece = append(piece, '?')
		default:
			piece = append(piece, '.')
		}
		g.wordsInSent = 0
		g.sentLen = 5 + g.r.intn(11)
		g.startOfSent = true
		g.sentsInPara++
		if g.sentsInPara >= g.paraLen {
			piece = append(piece, '\n', '\n')
			g.sentsInPara = 0
			g.paraLen = 3 + g.r.intn(5)
			g.col = 0
		}
	}
	// Line wrapping at ~70 columns, like the Project Gutenberg plain text
	// alice29.txt actually ships.
	if g.col+len(piece) > 70 {
		piece = append(piece, '\n')
		g.col = 0
	} else {
		piece = append(piece, ' ')
		g.col += len(piece)
	}
	if len(piece) > max {
		piece = piece[:max]
	}
	return append(dst, piece...)
}

// ---------- LOW: JPEG-like entropy data ----------

// entropyGenerator emits high-entropy bytes with the light structure of a
// JPEG entropy-coded segment: 0xFF bytes are followed by 0x00 stuffing, and
// restart markers (0xFFD0–0xFFD7) appear periodically. A small fraction of
// short repeats keeps the data barely compressible (~90–95 %), matching the
// paper's description of image.jpg.
type entropyGenerator struct {
	r     *rng
	count int
}

func (g *entropyGenerator) append(dst []byte, max int) []byte {
	n := 256
	if n > max {
		n = max
	}
	for i := 0; i < n; i++ {
		b := byte(g.r.next())
		g.count++
		if b == 0xFF {
			dst = append(dst, 0xFF, 0x00)
			i++
			continue
		}
		if g.count%1719 == 0 {
			// Restart marker interval.
			dst = append(dst, 0xFF, 0xD0|byte(g.r.intn(8)))
			i++
			continue
		}
		if g.r.float() < 0.03 {
			// Short repeated runs: zero-coefficient stretches in the
			// entropy stream give real JPEGs their few compressible
			// percent.
			run := 4 + g.r.intn(8)
			for j := 0; j < run && i < n; j++ {
				dst = append(dst, b)
				i++
			}
			continue
		}
		dst = append(dst, b)
	}
	return dst
}

// ---------- readers ----------

// fileReader loops one generated file forever, mirroring the paper's sender
// task which repeatedly wrote the same test file until 50 GB were produced.
type fileReader struct {
	file []byte
	off  int
}

// NewFileReader returns an io.Reader that endlessly repeats one generated
// file of the canonical size for the kind.
func NewFileReader(kind Kind, seed uint64) io.Reader {
	return &fileReader{file: GenerateFile(kind, seed)}
}

// NewLoopReader endlessly repeats the supplied content.
func NewLoopReader(content []byte) io.Reader {
	if len(content) == 0 {
		panic("corpus: empty loop content")
	}
	return &fileReader{file: content}
}

// CanterburyEnv names the environment variable pointing at a directory with
// the real Canterbury Corpus files; when set, LoadOrGenerate serves the
// paper's actual test files instead of the synthetic stand-ins.
const CanterburyEnv = "ADAPTIO_CANTERBURY_DIR"

// LoadOrGenerate returns the kind's canonical file: the real file from
// $ADAPTIO_CANTERBURY_DIR (matching the kind's FileName) when that variable
// is set and the file exists, otherwise the deterministic synthetic file.
// The boolean reports whether real data was loaded.
func LoadOrGenerate(kind Kind, seed uint64) ([]byte, bool) {
	dir := os.Getenv(CanterburyEnv)
	if dir == "" {
		return GenerateFile(kind, seed), false
	}
	data, err := os.ReadFile(filepath.Join(dir, kind.FileName()))
	if err != nil || len(data) == 0 {
		return GenerateFile(kind, seed), false
	}
	return data, true
}

func (r *fileReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		c := copy(p[n:], r.file[r.off:])
		n += c
		r.off += c
		if r.off == len(r.file) {
			r.off = 0
		}
	}
	return n, nil
}

// alternatingReader switches between kinds every `every` bytes (the Figure 6
// workload: HIGH and LOW alternating every 10 GB).
type alternatingReader struct {
	readers []io.Reader
	every   int64
	total   int64
}

// NewAlternatingReader returns a reader cycling through the kinds, switching
// after each `every` bytes read.
func NewAlternatingReader(kinds []Kind, every int64, seed uint64) io.Reader {
	if len(kinds) == 0 || every <= 0 {
		panic("corpus: invalid alternating reader parameters")
	}
	rs := make([]io.Reader, len(kinds))
	for i, k := range kinds {
		rs[i] = NewFileReader(k, seed+uint64(i))
	}
	return &alternatingReader{readers: rs, every: every}
}

func (a *alternatingReader) Read(p []byte) (int, error) {
	phase := int(a.total / a.every % int64(len(a.readers)))
	// Do not cross a phase boundary within one Read so switches are exact.
	remain := a.every - a.total%a.every
	if int64(len(p)) > remain {
		p = p[:remain]
	}
	n, err := a.readers[phase].Read(p)
	a.total += int64(n)
	return n, err
}
