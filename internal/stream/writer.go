package stream

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"adaptio/internal/block"
	"adaptio/internal/compress"
	"adaptio/internal/compress/probe"
	"adaptio/internal/core"
	"adaptio/internal/obs"
	"adaptio/internal/vclock"
)

// WindowStat describes one completed decision window; it feeds the
// time-series traces of Figures 4–6.
type WindowStat struct {
	// Start and Elapsed delimit the window.
	Start   time.Time
	Elapsed time.Duration
	// AppBytes is the number of application (pre-compression) bytes
	// accepted during the window.
	AppBytes int64
	// WireBytes is the number of frame bytes (headers + payloads) passed
	// to the I/O layer during the window.
	WireBytes int64
	// Rate is AppBytes/Elapsed in bytes per second — the cdr fed to the
	// decision algorithm.
	Rate float64
	// Level is the level that was active during the window; NextLevel is
	// the decision for the following window.
	Level     int
	NextLevel int
}

// Stats aggregates one end's activity: a Writer's (Writer.Stats), or the
// byte, block and copy counts of a Reader (Reader.Stats).
type Stats struct {
	AppBytes      int64 // bytes accepted from (Reader: delivered to) the application
	WireBytes     int64 // bytes handed to (Reader: consumed from) the I/O layer, headers + payloads
	Blocks        int64 // frames written (Reader: decoded)
	LevelSwitches int64 // times the active level changed
	// BlocksPerLevel counts frames per ladder level index.
	BlocksPerLevel []int64
	// RawFallbacks counts blocks stored uncompressed despite a compressing
	// level: the codec failed to shrink them, or the entropy pre-probe sent
	// them straight to stored-raw framing. The probe-skipped subset is also
	// counted in ProbeSkips.
	RawFallbacks int64
	// ProbeSkips counts blocks the entropy pre-probe judged hopeless, which
	// therefore skipped the codec entirely (see Writer.flushBlock). Wire
	// bytes are unchanged by a skip — the codec would have taken the same
	// stored-raw fallback — only the compression work is saved.
	ProbeSkips int64
	// CopiedBytes counts the user-space buffer-to-buffer copies application
	// bytes took on their way to the wire, a byte once per copy: staging
	// into the pending block by Write (ReadDirect fills the block in place
	// and stages nothing), the move of the bytes a pending block holds when
	// it grows into a larger arena buffer (see Writer.grow), and every
	// byte run through a codec transform. Stored-raw bytes that ReadDirect
	// put in place and no copy touched ride the vectored write aliasing the
	// block; those land in PassthroughBytes instead. CopiedBytes/AppBytes is
	// the relay's bytes-copied-per-byte-relayed ratio (docs/performance.md).
	CopiedBytes int64
	// PassthroughBytes counts application bytes that reached the wire
	// without any user-space copy (stored-raw frames of bytes ReadDirect
	// put in place).
	PassthroughBytes int64
}

// Ratio is WireBytes/AppBytes, the achieved compression ratio including
// framing; 1 while no application bytes have moved.
func (s Stats) Ratio() float64 {
	if s.AppBytes == 0 {
		return 1
	}
	return float64(s.WireBytes) / float64(s.AppBytes)
}

// WriterConfig parameterizes a Writer. The zero value gives the paper's
// configuration: the four-level default ladder, t = 2 s, 128 KB blocks,
// adaptive (DYNAMIC) level selection by Algorithm 1 at α = 0.2, wall-clock
// time.
type WriterConfig struct {
	// Ladder is the ordered compression-level ladder. Nil means
	// DefaultLadder().
	Ladder compress.Ladder
	// Window is the reconsideration interval t. Zero means 2 s.
	Window time.Duration
	// BlockSize caps the bytes buffered before a frame is cut. Zero means
	// 128 KB. Values above MaxBlockSize are invalid.
	BlockSize int
	// StaticLevel is the level pinned when Static is set (the paper's
	// NO/LIGHT/MEDIUM/HEAVY static baselines); it is ignored otherwise, so
	// the zero-valued config adapts rather than pinning level 0.
	StaticLevel int
	// Static pins StaticLevel instead of adapting.
	//
	// Deprecated: outside tests only bench/ sets Static and StaticLevel; pin
	// a level with Decider: core.Static(n).
	Static bool
	// Decider, if non-nil, is the level-selection policy instance the
	// writer drives instead of constructing the paper's default
	// (core.AlgorithmOne): a registry policy (core.NewPolicy: "algone",
	// "bandit", "ewma"), an ablated core.NewDecider, or a coord.Stream
	// handle from the fleet coordinator. The instance must be dedicated to
	// this writer (policies are not safe for concurrent use). The writer
	// starts at its Level() and feeds it every completed window through
	// core.ObserveWindow — a core.WindowPolicy receives the window's byte
	// totals with the rate — which clamps whatever it returns to the
	// ladder, so a misbehaving policy can degrade compression choices but
	// never crash the stream. A policy that also has LastDecision() (every
	// core.Decider) feeds the decision event log. Mutually exclusive with
	// Static.
	Decider core.Policy
	// Clock supplies time; nil means the wall clock.
	Clock vclock.Clock
	// OnWindow, if non-nil, is invoked after every completed decision
	// window (also in static mode, with NextLevel == Level).
	OnWindow func(WindowStat)
	// Obs, if non-nil, is the observability scope the writer registers
	// its metrics under (conventionally "<component>.stream.writer"):
	// byte/block counters (total and per level), the window app-rate
	// histogram, and the controller decision event log. A nil scope
	// keeps the writer fully functional with unregistered metrics.
	Obs *obs.Scope
	// Pool, if non-nil, compresses blocks on workers this writer shares with
	// others (NewEncodePool): the writer adds only the ordering state and one
	// flusher goroutine, and keeps at most a fixed number of blocks in flight
	// however many workers the pool has. The wire bytes are those of the
	// inline writer. The pool must outlive the writer. NewParallelWriter,
	// which starts workers of its own, rejects it.
	Pool *EncodePool
}

// Writer intercepts an application byte stream, compresses it adaptively and
// forwards self-describing frames to the underlying writer. It is not safe
// for concurrent use.
type Writer struct {
	dst    io.Writer
	cfg    WriterConfig
	ladder compress.Ladder
	clock  vclock.Clock
	policy core.Policy // never nil: core.Static in static mode

	// blk holds the pending application bytes (blk.B, cut at BlockSize). It
	// comes from the block arena, sized to the traffic (see grow), and returns
	// to it in Close. A cut block leaves the writer whole (zero copy) to be
	// encoded inline or on a worker, and a fresh arena buffer takes its place
	// (see flushBlock); the frame gets an arena buffer of its own (encode),
	// and emit gives both back.
	blk    *block.Buf
	copied int64 // byte copies the pending bytes took so far: Write's staging, grow's moves
	direct int64 // pending bytes ReadDirect put in place that no copy has touched since

	// pipe runs blocks on workers: from the constructor on NewParallelWriter's
	// own workers or on Pool, and then ahead is set and Write returns with
	// frames in flight. Otherwise pipe starts at the first batch of a
	// multi-block Write (see flushBlock), on width-1 workers of the writer's
	// own; width is how many blocks a batch may hold, the caller's own
	// included, and 1 keeps the writer inline.
	pipe  *pipeline
	ahead bool
	width int

	level       int
	windowStart time.Time
	winAppBytes int64

	// statsMu guards stats and winWireBytes: with a pipeline the flusher
	// goroutine accounts frames concurrently with the caller.
	statsMu      sync.Mutex
	winWireBytes int64
	stats        Stats
	obs          writerObs

	closed bool
	err    error // sticky error
	// probeOff keeps every block on the codec path. Only in-package tests
	// set it, to show that the probe's verdict removes work and never
	// changes a wire byte.
	probeOff bool
	// wireErr is the first destination write error. It belongs to the one
	// goroutine that runs emit: the caller inline; with a pipeline the
	// flusher, or the caller while nothing is in flight (pipeline.pass).
	wireErr error
}

// NewWriter creates an adaptive compression writer in front of dst; without
// cfg.Pool every byte of a Write is on the wire when it returns. Above
// GOMAXPROCS 1 a Write that carries several whole blocks encodes them in
// batches of up to min(GOMAXPROCS, 8) side by side: the first such call starts
// that many workers less one, and a flusher, which the writer keeps until
// Close. A writer that only ever sees single-block calls starts no goroutine.
func NewWriter(dst io.Writer, cfg WriterConfig) (*Writer, error) {
	return newWriter(dst, cfg, 0)
}

// NewParallelWriter creates a writer that compresses blocks on a private
// order-preserving pool of workers (GOMAXPROCS when workers < 1) and runs
// ahead of the wire: Write returns with frames still in flight. The wire
// bytes are NewWriter's, and one worker is NewWriter's writer. cfg.Pool must
// be nil.
func NewParallelWriter(dst io.Writer, cfg WriterConfig, workers int) (*Writer, error) {
	if cfg.Pool != nil {
		return nil, errors.New("stream: NewParallelWriter starts its own workers; cfg.Pool must be nil")
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	return newWriter(dst, cfg, workers)
}

// newWriter is both constructors; more than one worker means a private pool.
func newWriter(dst io.Writer, cfg WriterConfig, workers int) (*Writer, error) {
	if dst == nil {
		return nil, errors.New("stream: nil destination writer")
	}
	if cfg.Ladder == nil {
		cfg.Ladder = DefaultLadder()
	}
	if err := cfg.Ladder.Validate(); err != nil {
		return nil, err
	}
	if cfg.Window == 0 {
		cfg.Window = time.Duration(core.DefaultWindowSeconds * float64(time.Second))
	}
	if cfg.Window < 0 {
		return nil, fmt.Errorf("stream: negative window %v", cfg.Window)
	}
	if cfg.BlockSize == 0 {
		cfg.BlockSize = DefaultBlockSize
	}
	if cfg.BlockSize < 1 || cfg.BlockSize > MaxBlockSize {
		return nil, fmt.Errorf("stream: block size %d out of range [1, %d]", cfg.BlockSize, MaxBlockSize)
	}
	if cfg.Clock == nil {
		cfg.Clock = vclock.Real{}
	}

	w := &Writer{
		dst:    dst,
		cfg:    cfg,
		ladder: cfg.Ladder,
		clock:  cfg.Clock,
	}
	w.stats.BlocksPerLevel = make([]int64, len(cfg.Ladder))
	w.obs = newWriterObs(cfg.Obs, cfg.Ladder)

	switch {
	case cfg.Static:
		if cfg.Decider != nil {
			return nil, errors.New("stream: Static and Decider are mutually exclusive")
		}
		w.policy = core.Static(cfg.StaticLevel)
	case cfg.Decider != nil:
		w.policy = cfg.Decider
	default:
		dec, err := core.NewDecider(core.Config{Levels: len(cfg.Ladder)})
		if err != nil {
			return nil, err
		}
		w.policy = dec
	}
	w.level = w.policy.Level()
	if w.level < 0 || w.level >= len(cfg.Ladder) {
		return nil, fmt.Errorf("stream: starting level %d outside ladder of %d levels", w.level, len(cfg.Ladder))
	}

	// All validation passed: acquire the pending block (released in Close),
	// the arena's smallest.
	w.blk = block.Get(0)
	switch {
	case workers > 1:
		w.pipe, w.ahead = newPipeline(w, NewEncodePool(workers), true), true
	case cfg.Pool != nil:
		w.pipe, w.ahead = newPipeline(w, cfg.Pool, false), true
	default:
		w.width = min(runtime.GOMAXPROCS(0), sharedInFlight)
	}
	w.windowStart = w.clock.Now()
	return w, nil
}

// compressJob is one cut block on its way to becoming a frame.
type compressJob struct {
	seq      uint64 // submission order; pool mode only
	level    int
	hopeless bool       // the entropy probe's verdict, taken at the cut
	copied   int64      // byte copies the raw bytes took before the cut (Writer.copied)
	direct   int64      // raw bytes no copy touched (Writer.direct)
	block    *block.Buf // B holds the raw bytes
}

// encodedFrame is one frame ready for the wire.
type encodedFrame struct {
	seq     uint64
	frame   *block.Buf // head piece: header [+ compressed payload]
	tail    *block.Buf // stored-raw frames only: the block itself, written vectored after frame
	rawLen  int
	copied  int64
	direct  int64
	level   int
	codecID uint8
	skipped bool // entropy probe sent the block straight to stored-raw
}

// encode compresses job's block at the job's level into a frame. It is the
// single frame encoder: the caller runs it inline and for the last block of a
// batch, the pool on a worker. The frame goes into an arena buffer sized to
// what the block needs — a bare header when it will be stored raw — and the
// block goes back to the arena here unless the frame came out stored raw and
// carries it on as its tail. It only reads immutable writer state, so
// workers may run it concurrently.
func (w *Writer) encode(job compressJob) encodedFrame {
	need := headerSize // a stored-raw frame's head piece
	if w.ladder[job.level].Codec.ID() != compress.IDNone && !job.hopeless {
		need = maxFrameSize(len(job.block.B))
	}
	frame := block.Get(need)
	head, tail, codecID := encodeFramePieces(frame.B, w.ladder, job.level, job.block.B, job.hopeless)
	frame.B = head // keep any growth with the pooled buffer
	f := encodedFrame{
		seq: job.seq, frame: frame, rawLen: len(job.block.B), copied: job.copied,
		direct: job.direct, level: job.level, codecID: codecID, skipped: job.hopeless,
	}
	if tail != nil {
		// Stored raw: tail aliases the block, which travels with the frame.
		f.tail = job.block
	} else {
		job.block.Release()
	}
	return f
}

// emit puts one encoded frame on the wire — vectored when it carries a
// stored-raw tail piece, so the block is never copied into the frame buffer
// — accounts it, and gives the frame's buffers back to the arena. It is the
// single frame writer: the inline writer calls it on the caller's goroutine,
// a pipeline from its flusher or, while nothing is in flight, from pass, in
// frame order. The first write error is sticky: the stream has a hole from
// there on, so every later frame is refused unwritten and unaccounted, and
// its buffers go back all the same.
func (w *Writer) emit(f encodedFrame) error {
	wire := int64(len(f.frame.B))
	switch {
	case w.wireErr != nil:
	case f.tail == nil:
		w.wireErr = writeFull(w.dst, f.frame.B)
	default:
		wire += int64(len(f.tail.B))
		w.wireErr = WriteVectored(w.dst, f.frame.B, f.tail.B)
	}
	f.frame.Release()
	if f.tail != nil {
		f.tail.Release()
	}
	if w.wireErr != nil {
		return w.wireErr
	}
	// The copy ledger: a codec transform copies every raw byte once (on top
	// of the copies taken before the cut); a stored-raw frame rides the
	// vectored write aliasing the block, so the bytes no copy touched reach
	// the wire copy-free.
	rawBytes := int64(f.rawLen)
	copied, passthrough := f.copied, int64(0)
	if f.codecID != compress.IDNone {
		copied += rawBytes
	} else {
		passthrough = f.direct
	}
	w.statsMu.Lock()
	w.accountFrame(wire, rawBytes, copied, passthrough, f.level, f.codecID, f.skipped)
	w.statsMu.Unlock()
	return nil
}

// accountFrame updates the frame counters; callers hold statsMu. copied and
// passthrough split the frame's raw bytes by user-space copy cost: copied
// counts buffer-to-buffer memcpys (staging by Write, codec transforms,
// contiguous pipeline assembly), passthrough counts bytes that reached the
// wire aliased straight out of the block with no user-space copy.
func (w *Writer) accountFrame(wireBytes, rawBytes, copied, passthrough int64, level int, codecID uint8, skipped bool) {
	w.stats.WireBytes += wireBytes
	w.winWireBytes += wireBytes
	w.stats.Blocks++
	w.stats.BlocksPerLevel[level]++
	w.stats.CopiedBytes += copied
	w.stats.PassthroughBytes += passthrough
	w.obs.wireBytes.Add(wireBytes)
	w.obs.blocks.Inc()
	w.obs.levelAppBytes[level].Add(rawBytes)
	w.obs.levelWireBytes[level].Add(wireBytes)
	w.obs.copiedBytes.Add(copied)
	w.obs.passthroughBytes.Add(passthrough)
	if codecID == compress.IDNone && w.ladder[level].Codec.ID() != compress.IDNone {
		w.stats.RawFallbacks++
		w.obs.rawFallbacks.Inc()
		if skipped {
			w.stats.ProbeSkips++
			w.obs.probeSkips.Inc()
		}
	}
}

// Level returns the currently active compression level.
func (w *Writer) Level() int { return w.level }

// Stats returns a snapshot of the writer's counters. With a pipeline,
// frames still in flight are not yet counted; Flush or Close first for
// exact totals.
func (w *Writer) Stats() Stats {
	w.statsMu.Lock()
	defer w.statsMu.Unlock()
	s := w.stats
	s.BlocksPerLevel = append([]int64(nil), w.stats.BlocksPerLevel...)
	return s
}

// Write implements io.Writer for application data.
func (w *Writer) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	if w.closed {
		return 0, errors.New("stream: write after Close")
	}
	total, batched := 0, 0
	for len(p) > 0 {
		n := min(len(p), w.cfg.BlockSize-len(w.blk.B))
		if len(w.blk.B)+n > cap(w.blk.B) {
			w.grow(len(w.blk.B) + n)
		}
		w.blk.B = append(w.blk.B, p[:n]...)
		p = p[n:]
		total += n
		w.copied += int64(n)
		w.accept(n)
		if len(w.blk.B) < w.cfg.BlockSize {
			break // p is spent
		}
		// rest: this call will cut another whole block; more: the batch
		// has room for it, so this one may be encoded beside it.
		rest := len(p) >= w.cfg.BlockSize
		batched++
		more := rest && batched < w.width
		if w.flushBlock(more) != nil {
			return total, w.err
		}
		if rest && !more {
			// Between two batches nothing is pending, and unless the
			// writer runs ahead nothing is in flight: a long Write closes
			// its decision windows here, not in one piece at its return.
			batched = 0
			w.maybeDecide()
		}
	}
	w.maybeDecide()
	return total, nil
}

// grow moves the pending block into an arena buffer of capacity at least n,
// carrying the bytes it holds. The block starts in the arena's smallest class
// and after every cut in the class that held the block just cut (see
// flushBlock), so a connection that moves small messages holds a small
// buffer; growing is how it reaches BlockSize when its traffic does. Write
// grows to what it brings, ReadDirect, which cannot know, one class at a
// time. Frames are cut where they always were: only capacity follows the
// traffic. The move is a user-space copy of the held bytes, which the copy
// ledger counts, and after it none of them is a passthrough byte.
func (w *Writer) grow(n int) {
	b := block.Get(n)
	b.B = append(b.B, w.blk.B...)
	w.blk.Release()
	w.blk = b
	w.copied += int64(len(b.B))
	w.direct = 0
}

// accept counts n application bytes taken into the pending block.
func (w *Writer) accept(n int) {
	w.stats.AppBytes += int64(n)
	w.winAppBytes += int64(n)
	w.obs.appBytes.Add(int64(n))
}

// Buffered returns the number of application bytes accepted but not yet cut
// into a frame. Relays use it to decide whether a coalescing flush deadline
// is armed (docs/performance.md, "Zero-copy relay").
func (w *Writer) Buffered() int {
	if w.closed {
		return 0
	}
	return len(w.blk.B)
}

// ReadDirect performs one read from r straight into the writer's pending
// block, avoiding the staging copy a Read-into-scratch-then-Write loop pays:
// the bytes land exactly where flushBlock compresses (or, for stored-raw
// frames, vector-writes) them from. One read fills at most the block's
// capacity; a block it leaves full below BlockSize grows a class before the
// next read (see grow). It returns the bytes read and r's error
// verbatim — including timeouts, which are NOT made sticky, so a relay can
// use read deadlines on r for flush pacing and keep going. A full block is
// cut before reading (so there is always space) and immediately after the
// read that fills it; if that cut fails on the wire, the writer's sticky
// error replaces r's, io.EOF included, so ReadFrom never reports a clean
// copy of a stream with a hole in it.
func (w *Writer) ReadDirect(r io.Reader) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	if w.closed {
		return 0, errors.New("stream: read after Close")
	}
	if len(w.blk.B) == w.cfg.BlockSize && w.flushBlock(false) != nil {
		return 0, w.err
	}
	if len(w.blk.B) == cap(w.blk.B) {
		w.grow(len(w.blk.B) + 1) // the next class up
	}
	n, err := r.Read(w.blk.B[len(w.blk.B):min(cap(w.blk.B), w.cfg.BlockSize)])
	if n > 0 {
		w.blk.B = w.blk.B[:len(w.blk.B)+n]
		w.direct += int64(n)
		w.accept(n)
		if len(w.blk.B) == w.cfg.BlockSize && w.flushBlock(false) != nil {
			err = w.err
		}
	}
	w.maybeDecide()
	return n, err
}

// ReadFrom implements io.ReaderFrom by looping ReadDirect until EOF, so
// io.Copy(w, src) moves the stream without an intermediate buffer.
func (w *Writer) ReadFrom(r io.Reader) (int64, error) {
	var total int64
	for {
		n, err := w.ReadDirect(r)
		total += int64(n)
		if err == io.EOF {
			return total, nil
		}
		if err != nil {
			return total, err
		}
	}
}

// Flush writes any buffered partial block downstream and, with a worker
// pool, waits until every in-flight frame has reached the underlying
// writer. It does not flush the underlying writer.
func (w *Writer) Flush() error {
	if !w.closed && w.err == nil && w.flushBlock(false) == nil && w.pipe != nil {
		w.err = w.pipe.drain()
	}
	return w.err
}

// Close flushes buffered data and finalizes the current decision window.
// It returns the writer's pooled buffers to the block arena and stops the
// writer's own workers and flusher, so a Writer must not be used after Close.
// It does not close the underlying writer.
func (w *Writer) Close() error {
	if w.closed {
		return w.err
	}
	if w.Flush() == nil {
		w.finishWindow(true)
	}
	w.closed = true
	if w.pipe != nil {
		// Nothing is in flight after a clean Flush; after a failed one the
		// flusher releases what is, unwritten.
		w.pipe.stop()
	}
	w.blk.Release()
	w.blk = nil
	return w.err
}

// flushBlock cuts the pending bytes into one frame: encoded and emitted on the
// spot, or handed to the pipeline; the block leaves with its frame, and the
// writer carries on in a fresh arena buffer of the class that held it. more
// says the running Write's batch holds another block after this one; Flush,
// Close, a level switch and ReadDirect (whose next block waits on the source,
// so this one must not wait for it) pass false. A writer that does not run
// ahead submits a batch's blocks but its last, encodes that one itself while
// the workers encode the others, and waits until all of them are on the wire:
// a batch costs the caller about one encode, not the sum of them, and errors
// stay synchronous. The entropy probe runs here, before any codec and on the
// caller's goroutine, because its verdict also routes the block: a block that
// will be stored raw (identity level, or hopeless) never visits a worker. A
// failure is recorded in w.err.
func (w *Writer) flushBlock(more bool) error {
	n := len(w.blk.B)
	if n == 0 {
		return nil
	}
	compresses := w.ladder[w.level].Codec.ID() != compress.IDNone
	job := compressJob{
		level: w.level, copied: w.copied, direct: w.direct, block: w.blk,
		hopeless: compresses && !w.probeOff && probe.Hopeless(w.blk.B),
	}
	w.copied, w.direct = 0, 0
	coded := compresses && !job.hopeless
	if w.pipe == nil && coded && more {
		w.pipe = newPipeline(w, NewEncodePool(w.width-1), true)
	}
	switch {
	case w.pipe == nil:
		w.err = w.emit(w.encode(job))
	case coded && (more || w.ahead):
		w.err = w.pipe.submit(job)
	default:
		w.err = w.pipe.pass(w.encode(job))
	}
	if w.pipe != nil && !w.ahead && (!more || w.err != nil) {
		if err := w.pipe.drain(); w.err == nil {
			w.err = err
		}
	}
	// Taken after the hand-off, so the inline path gets back the buffer its
	// frame just released.
	w.blk = block.Get(n)
	return w.err
}

// maybeDecide closes the current decision window if t has elapsed, feeds the
// measured application data rate to the decision model and installs the next
// level.
func (w *Writer) maybeDecide() {
	elapsed := w.clock.Now().Sub(w.windowStart)
	if elapsed < w.cfg.Window {
		return
	}
	w.finishWindow(false)
}

func (w *Writer) finishWindow(final bool) {
	now := w.clock.Now()
	elapsed := now.Sub(w.windowStart)
	if elapsed <= 0 {
		if !final {
			return
		}
		elapsed = time.Nanosecond
	}
	rate := float64(w.winAppBytes) / elapsed.Seconds()
	w.obs.windowRate.Observe(rate)
	w.statsMu.Lock()
	winWire := w.winWireBytes
	w.statsMu.Unlock()
	next := w.level
	if !final {
		// The error only says the policy's answer was out of range; the
		// level comes back clamped and the stream carries on with it.
		next, _ = core.ObserveWindow(w.policy, len(w.ladder), core.Window{
			Rate: rate, AppBytes: w.winAppBytes, WireBytes: winWire,
		})
		if d, ok := w.policy.(interface{ LastDecision() core.Decision }); ok {
			w.obs.onDecision(d.LastDecision())
		}
	}
	if w.cfg.OnWindow != nil {
		w.cfg.OnWindow(WindowStat{
			Start:     w.windowStart,
			Elapsed:   elapsed,
			AppBytes:  w.winAppBytes,
			WireBytes: winWire,
			Rate:      rate,
			Level:     w.level,
			NextLevel: next,
		})
	}
	if next != w.level {
		// Cut the pending block so data buffered under the old level is
		// not compressed with the new one mid-window accounting.
		if w.flushBlock(false) != nil {
			return
		}
		w.level = next
		w.stats.LevelSwitches++
		w.obs.levelSwitches.Inc()
	}
	w.windowStart = now
	w.winAppBytes = 0
	w.statsMu.Lock()
	w.winWireBytes = 0
	w.statsMu.Unlock()
}
