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
//
// Generate makes the same number of allocations for any n: the n-byte result
// and the generator's state. Each generator builds its output a token at a
// time in a buffer it reuses, so a 24 MiB input costs no more garbage than a
// 4 KiB one.
//
// The text generator builds a word with one 16-byte store from a table of
// the vocabulary zero-padded to 16 bytes, in lower case and capitalised, and
// advances by the word's length; its RNG and sentence state stay in locals
// for a whole 4 KiB token. A test-only reference generator (ref_test.go)
// pins it byte for byte.
package corpus

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"adaptio/internal/xrand"
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

// Generate returns n bytes of the given kind, deterministic for (kind, seed).
func Generate(kind Kind, n int, seed uint64) []byte {
	out := make([]byte, 0, n)
	g := newGenerator(kind, seed)
	for len(out) < n {
		tok := g.next(n - len(out))
		out = append(out, tok[:min(len(tok), n-len(out))]...)
	}
	return out
}

// GenerateFile returns one file of the canonical size for the kind.
func GenerateFile(kind Kind, seed uint64) []byte {
	return Generate(kind, kind.FileSize(), seed)
}

// generator produces data one token at a time: a run of whole words, a
// scanline, a chunk of entropy-coded bytes.
type generator interface {
	// next returns the next token, at least 1 byte long, in a buffer the
	// generator overwrites on the following call. max is how many bytes
	// Generate still needs; a token may run past it, and Generate cuts
	// the final token there.
	next(max int) []byte
}

func newGenerator(kind Kind, seed uint64) generator {
	switch kind {
	case High:
		return &faxGenerator{r: xrand.New(seed)}
	case Moderate:
		return newTextGenerator(seed)
	case Low:
		return &entropyGenerator{r: xrand.New(seed)}
	default:
		panic(fmt.Sprintf("corpus: unknown kind %d", int(kind)))
	}
}

// ---------- HIGH: fax-like bilevel image ----------

// faxGenerator emits mostly-white scanline data with sparse, vertically
// correlated black structures, like a scanned text page: long zero runs
// interrupted by short repeating ink patterns.
type faxGenerator struct {
	r *xrand.RNG
	// pattern is the current "text line" ink pattern, reused across
	// several rows to create the vertical correlation real fax pages have.
	// It slices patternBuf, or is nil in a blank band.
	pattern    []byte
	patternBuf [6]byte
	rowsLeft   int
	row        [faxRowBytes]byte
}

const faxRowBytes = 216 // 1728 px / 8, the CCITT G3 scan width

func (g *faxGenerator) next(int) []byte {
	row := g.row[:]
	clear(row)
	if g.rowsLeft == 0 {
		// Start a new band: either blank space or a text band.
		if g.r.Float64() < 0.35 {
			g.pattern = nil // blank band
			g.rowsLeft = 4 + g.r.Intn(24)
		} else {
			// A text line: a short ink pattern placed at a few
			// positions across the row.
			g.pattern = g.patternBuf[:2+g.r.Intn(5)]
			for i := range g.pattern {
				g.pattern[i] = byte(g.r.Uint64())
			}
			g.rowsLeft = 6 + g.r.Intn(10)
		}
	}
	g.rowsLeft--
	if g.pattern != nil {
		// Stamp the pattern at regular positions with slight jitter.
		step := 24 + g.r.Intn(8)
		for x := g.r.Intn(8); x+len(g.pattern) < faxRowBytes; x += step {
			copy(row[x:], g.pattern)
		}
	}
	// Scanner noise: isolated specks that appear on real fax scans. This
	// is what keeps the data from compressing far below the 10–15 % band
	// the paper reports for ptt5.
	specks := 3 + g.r.Intn(4)
	for i := 0; i < specks; i++ {
		x := g.r.Intn(faxRowBytes - 2)
		row[x] = byte(g.r.Uint64())
		if g.r.Intn(2) == 0 {
			row[x+1] = byte(g.r.Uint64())
		}
	}
	return row
}

// ---------- MODERATE: English-like prose ----------

// vocabulary is a Zipf-weighted word list; common words first. The generator
// samples rank r with probability proportional to 1/(r+2), which matches the
// heavy-tailed word distribution of natural English closely enough for LZ
// compressors to land in the paper's 30–50 % band.
var vocabulary = [...]string{
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

// textChunkBytes is the size of the text generator's token buffer: large
// enough that the state a call loads and stores, and Generate's copy-out
// call, cost nothing beside the words themselves.
const textChunkBytes = 4 << 10

// maxPiece bounds a piece: "caterpillar", '.', "\n\n" and a separator. It is
// also the width of a wordTable entry.
const maxPiece = 16

// wordTable holds each vocabulary word zero-padded to maxPiece bytes, as it
// is written mid-sentence (wordTable[0]) and capitalised to start one
// (wordTable[1]), and wordLen its length. The text generator copies a word
// with one fixed-width store and advances by its length; the pad bytes land
// where the rest of the piece and the next piece's store overwrite them.
var wordTable, wordLen = padVocabulary()

func padVocabulary() (table [2][len(vocabulary)][maxPiece]byte, lens [len(vocabulary)]uint8) {
	for i, w := range vocabulary {
		copy(table[0][i][:], w)
		copy(table[1][i][:], w)
		table[1][i][0] -= 'a' - 'A'
		lens[i] = uint8(len(w))
	}
	return table, lens
}

// sentenceEnd maps a draw of Intn(10) to the punctuation it ends a sentence
// with: one in ten '!', one in ten '?', the rest '.'.
const sentenceEnd = "!?........"

// textGenerator emits a stream of pieces, each a Zipf-sampled word with any
// sentence or paragraph end, then a space or a line break. The first word of
// a sentence is capitalised, sentences run 5–15 words and paragraphs 3–7
// sentences, and lines wrap once they pass 70 columns, like the Project
// Gutenberg plain text alice29.txt actually ships.
type textGenerator struct {
	r   *xrand.RNG
	col int
	// wordsLeft counts down the words of the sentence, sentsLeft the
	// sentences of the paragraph; capital is 1 when the next word starts
	// a sentence.
	wordsLeft, sentsLeft, capital int
	// chunk holds the token next builds: whole pieces, each begun with at
	// least maxPiece bytes to spare so its word store stays inside.
	chunk [textChunkBytes]byte
}

func newTextGenerator(seed uint64) *textGenerator {
	g := &textGenerator{r: xrand.New(seed), capital: 1}
	g.wordsLeft = 5 + g.r.Intn(11)
	g.sentsLeft = 3 + g.r.Intn(5)
	return g
}

// next returns whole pieces, at least max bytes of them unless the chunk
// fills first. No piece depends on max, so the byte stream is the same
// however Generate cuts it into tokens.
func (g *textGenerator) next(max int) []byte {
	// The loop runs on local copies of the RNG and the sentence state,
	// stored back at the end, as in entropyGenerator.next.
	r, col, capital := *g.r, g.col, g.capital
	wordsLeft, sentsLeft := g.wordsLeft, g.sentsLeft
	buf := g.chunk[:]
	n, end := 0, min(max, len(buf)-maxPiece+1)
	for n < end {
		// Zipf rank by inverse-CDF sampling over weights 1/(r+2),
		// approximated by cubing a uniform variate; cheap and close
		// enough.
		u := r.Float64()
		idx := min(int(u*u*u*float64(len(vocabulary))), len(vocabulary)-1)
		start := n
		*(*[maxPiece]byte)(buf[n:]) = wordTable[capital][idx]
		n += int(wordLen[idx])
		capital = 0
		if wordsLeft--; wordsLeft == 0 {
			buf[n] = sentenceEnd[r.Intn(10)]
			n++
			wordsLeft, capital = 5+r.Intn(11), 1
			if sentsLeft--; sentsLeft == 0 {
				buf[n], buf[n+1] = '\n', '\n'
				n += 2
				sentsLeft, col = 3+r.Intn(5), 0
			}
		}
		if col+n-start > 70 {
			buf[n] = '\n'
			col = 0
		} else {
			buf[n] = ' '
			col += n + 1 - start
		}
		n++
	}
	*g.r, g.col, g.capital = r, col, capital
	g.wordsLeft, g.sentsLeft = wordsLeft, sentsLeft
	return buf[:n]
}

// ---------- LOW: JPEG-like entropy data ----------

// entropyGenerator emits high-entropy bytes with the light structure of a
// JPEG entropy-coded segment: 0xFF bytes are followed by 0x00 stuffing, and
// restart markers (0xFFD0–0xFFD7) appear periodically. A small fraction of
// short repeats keeps the data barely compressible (~90–95 %), matching the
// paper's description of image.jpg.
type entropyGenerator struct {
	r *xrand.RNG
	// count is the number of bytes drawn since the last restart interval
	// began; every 1719th is a restart marker unless it drew 0xFF.
	count int
	// chunk holds the token next builds: 256 units, and one byte more when
	// the last is a two-byte unit (a stuffed 0xFF or a restart marker).
	chunk [257]byte
}

// repeatThreshold turns the short-run coin, Float64() < 0.03, into an
// integer compare on the same draw's top 53 bits k = Uint64()>>11, with the
// same outcome for every k. Float64 returns k/2^53 with no rounding: k < 2^53
// is representable and a power-of-two divide only moves the exponent. For
// the same reason the float64 value of 0.03 times 2^53 is exact, so
// k/2^53 < 0.03 holds just when k < 0.03·2^53, that is k < ceil(0.03·2^53).
var repeatThreshold = uint64(math.Ceil(float64(0.03) * (1 << 53)))

// next emits one chunk of min(256, max) units: a unit is a byte, a two-byte
// marker, or a short run, which spends one unit more than its length.
// Where a chunk ends decides where a run is cut, so its size depends on max.
func (g *entropyGenerator) next(max int) []byte {
	// The loop runs on local copies of the RNG and the counter, stored back
	// at the end: the counter stays in a register and no draw goes through
	// two pointers, which saves an eighth of the loop's time.
	r, count := *g.r, g.count
	units := min(256, max)
	n := 0
	for i := 0; i < units; i++ {
		b := byte(r.Uint64())
		if count++; count == 1719 {
			count = 0
		}
		if b == 0xFF {
			g.chunk[n], g.chunk[n+1] = 0xFF, 0x00
			n += 2
			i++
			continue
		}
		if count == 0 {
			// Restart marker interval.
			g.chunk[n], g.chunk[n+1] = 0xFF, 0xD0|byte(r.Intn(8))
			n += 2
			i++
			continue
		}
		if r.Uint64()>>11 < repeatThreshold {
			// Short repeated runs: zero-coefficient stretches in the
			// entropy stream give real JPEGs their few compressible
			// percent.
			run := 4 + r.Intn(8)
			for j := 0; j < run && i < units; j++ {
				g.chunk[n] = b
				n++
				i++
			}
			continue
		}
		g.chunk[n] = b
		n++
	}
	*g.r, g.count = r, count
	return g.chunk[:n]
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
