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
	// CopiedBytes counts application bytes that crossed a user-space
	// buffer-to-buffer copy on their way to the wire: bytes staged into
	// the pending block by Write (ReadDirect fills the block in place and
	// stages nothing) plus every byte run through a codec transform.
	// Stored-raw bytes that arrived via ReadDirect ride the vectored
	// write aliasing the block and are never copied; those land in
	// PassthroughBytes instead. CopiedBytes/AppBytes is the relay's
	// bytes-copied-per-byte-relayed ratio (docs/performance.md).
	CopiedBytes int64
	// PassthroughBytes counts application bytes that reached the wire
	// without any user-space copy (stored-raw frames of unstaged bytes).
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

	// blk holds the pending application bytes (blk.B, cut at BlockSize);
	// frame is the inline mode's frame scratch. Both come from the block
	// arena and return to it in Close. With a worker pool, blk is handed to
	// the pipeline whole on every cut block (zero copy) and a fresh arena
	// buffer takes its place; every frame gets its own arena buffer. A block
	// the inline mode forks (see fork) travels the same way.
	blk    *block.Buf
	frame  *block.Buf
	staged int64     // bytes of blk.B that arrived via Write (copied in)
	pipe   *pipeline // non-nil on NewParallelWriter's workers or on Pool

	// The inline mode's batch: forks[:forked] are the blocks of the current
	// Write call being encoded on goroutines of their own, in cut order;
	// width is how many blocks a batch may hold, the caller's own included.
	// forked is zero whenever no call is running. wireBound is the verdict of
	// the last batch timed (see closeBatch): the wire, not the encoder, is
	// what the caller waits for, so a second core would buy nothing.
	forks     [sharedInFlight - 1]forkedFrame
	forked    int
	width     int
	wireBound bool

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
// cfg.Pool every byte of a Write is on the wire when it returns.
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

	// All validation passed: acquire pooled buffers (released in Close).
	w.blk = block.Get(cfg.BlockSize)
	switch {
	case workers > 1:
		w.pipe = newPipeline(w, NewEncodePool(workers), true)
	case cfg.Pool != nil:
		w.pipe = newPipeline(w, cfg.Pool, false)
	default:
		w.frame = block.Get(maxFrameSize(cfg.BlockSize))
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
	staged   int64      // raw bytes copied into the block by Write
	block    *block.Buf // B holds the raw bytes
}

// encodedFrame is one frame ready for the wire.
type encodedFrame struct {
	seq     uint64
	frame   *block.Buf // head piece: header [+ compressed payload]
	tail    *block.Buf // stored-raw frames only: the block itself, written vectored after frame
	rawLen  int
	staged  int64
	level   int
	codecID uint8
	skipped bool // entropy probe sent the block straight to stored-raw
}

// release returns to the arena the buffers of a frame the pipeline owns.
func (f encodedFrame) release() {
	f.frame.Release()
	if f.tail != nil {
		f.tail.Release()
	}
}

// encode compresses job's block into frameBuf at the job's level. It is the
// single frame encoder: the inline writer runs it on the caller's goroutine
// into its own scratch, the pool on a worker into a pooled buffer. It only
// reads immutable writer state, so workers may run it concurrently.
func (w *Writer) encode(job compressJob, frameBuf *block.Buf) encodedFrame {
	head, tail, codecID := encodeFramePieces(frameBuf.B[:0], w.ladder, job.level, job.block.B, job.hopeless)
	frameBuf.B = head // keep any growth with the pooled buffer
	f := encodedFrame{
		seq: job.seq, frame: frameBuf, rawLen: len(job.block.B), staged: job.staged,
		level: job.level, codecID: codecID, skipped: job.hopeless,
	}
	if tail != nil {
		// Stored raw: tail aliases the block, which travels with the frame.
		f.tail = job.block
	}
	return f
}

// encodeOwned is encode for a block that has left the caller: a pool worker
// and a forked goroutine run exactly this. The frame goes into an arena
// buffer of its own, and the block goes back to the arena here unless the
// frame came out stored raw and carries it on as its tail.
func (w *Writer) encodeOwned(job compressJob) encodedFrame {
	f := w.encode(job, block.Get(maxFrameSize(len(job.block.B))))
	if f.tail == nil {
		job.block.Release()
	}
	return f
}

// forkedFrame is one slot of the inline mode's batch: done is released once
// f holds the encoded frame.
type forkedFrame struct {
	done sync.WaitGroup
	f    encodedFrame
}

// fork is the inline writer's use of a second core: a block cut while the
// Write call that filled it still holds another whole block is encoded on a
// goroutine that lives for that call, while the caller carries on staging in
// a fresh arena buffer. The caller encodes the last block of the batch
// itself and then joins (see join), so nothing is in flight when Write
// returns: errors stay synchronous, Flush has nothing to wait for, and the
// decider, OnWindow and every wire write stay on the caller's goroutine.
// Unlike a pipeline this never runs ahead of the wire, which on a wire-bound
// path would add a block's wire time to latency per block in flight.
func (w *Writer) fork(job compressJob) {
	s := &w.forks[w.forked]
	w.forked++
	s.done.Add(1)
	go func() {
		s.f = w.encodeOwned(job)
		s.done.Done()
	}()
	w.blk = block.Get(w.cfg.BlockSize)
}

// join closes a batch: it emits the forked frames in cut order, waiting for
// each, and releases their buffers — written, or refused by emit after an
// earlier write error, in which case the encodes still running are waited
// for all the same: no goroutine outlives the call.
func (w *Writer) join() {
	for i := range w.forks[:w.forked] {
		s := &w.forks[i]
		s.done.Wait()
		w.emit(s.f) // a failure is sticky: the caller's own emit reports it
		s.f.release()
		s.f = encodedFrame{}
	}
	w.forked = 0
}

// closeBatch encodes the last block of a batch — or all of it — on the
// caller's goroutine, beside the forked ones, then puts every frame on the
// wire in cut order. The batches of a multi-block Write are timed: when the
// wire kept the caller waiting for more than half of what the batch's encodes
// took (the caller's own, times the blocks), the call is waiting for the
// wire and the next batch does not fork — a paced wire takes two gaps of one
// encode each better than one longer gap, and a second core that buys
// nothing is a neighbour's. A batch the encoder holds up finds the wire
// ready, and the next one forks again. A single-block call reads no clock.
func (w *Writer) closeBatch(job compressJob, timed bool) error {
	var start, encoded time.Time
	if timed {
		start = w.clock.Now()
	}
	f := w.encode(job, w.frame)
	if timed {
		encoded = w.clock.Now()
	}
	blocks := time.Duration(w.forked + 1)
	w.join()
	w.err = w.emit(f)
	w.blk.B = w.blk.B[:0]
	if timed {
		w.wireBound = 2*w.clock.Now().Sub(encoded) > blocks*encoded.Sub(start)
	}
	return w.err
}

// emit puts one encoded frame on the wire — vectored when it carries a
// stored-raw tail piece, so the block is never copied into the frame buffer
// — and accounts it. It is the single frame writer: the inline writer calls
// it on the caller's goroutine (forked frames included), the pool from its
// flusher, in frame order.
// The first write error is sticky: the stream has a hole from there on, so
// every later frame is refused unwritten and unaccounted.
func (w *Writer) emit(f encodedFrame) error {
	if w.wireErr != nil {
		return w.wireErr
	}
	wire := int64(len(f.frame.B))
	if f.tail == nil {
		w.wireErr = writeFull(w.dst, f.frame.B)
	} else {
		wire += int64(len(f.tail.B))
		w.wireErr = WriteVectored(w.dst, f.frame.B, f.tail.B)
	}
	if w.wireErr != nil {
		return w.wireErr
	}
	// The copy ledger: a codec transform copies every raw byte once (on top
	// of any staging copy by Write); a stored-raw frame rides the vectored
	// write aliasing the block, so its unstaged bytes reach the wire
	// copy-free.
	rawBytes := int64(f.rawLen)
	copied, passthrough := f.staged, int64(0)
	if f.codecID != compress.IDNone {
		copied += rawBytes
	} else {
		passthrough = rawBytes - f.staged
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
	total := 0
	for len(p) > 0 {
		n := min(len(p), w.cfg.BlockSize-len(w.blk.B))
		w.blk.B = append(w.blk.B, p[:n]...)
		p = p[n:]
		total += n
		w.staged += int64(n)
		w.accept(n)
		if len(w.blk.B) < w.cfg.BlockSize {
			break // p is spent
		}
		// more: this call will cut another whole block, so this one may be
		// encoded beside it.
		more := len(p) >= w.cfg.BlockSize
		if w.flushBlock(more) != nil {
			return total, w.err
		}
		if more && w.forked == 0 {
			// Between two batches nothing is pending, and inline nothing
			// is in flight: a long Write closes its decision windows here,
			// not in one piece at its return.
			w.maybeDecide()
		}
	}
	w.maybeDecide()
	return total, nil
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
// frames, vector-writes) them from. It returns the bytes read and r's error
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
	n, err := r.Read(w.blk.B[len(w.blk.B):w.cfg.BlockSize])
	if n > 0 {
		w.blk.B = w.blk.B[:len(w.blk.B)+n]
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
// It returns the writer's pooled buffers to the block arena, so a Writer
// must not be used after Close. It does not close the underlying writer.
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
	if w.frame != nil {
		w.frame.Release()
	}
	w.blk, w.frame = nil, nil
	return w.err
}

// flushBlock cuts the pending bytes into one frame: encoded and emitted on
// the spot, forked, or handed to the pipeline. more says the running Write
// holds another whole block to encode beside this one; Flush, Close, a level
// switch and ReadDirect (whose next block waits on the source, so this one
// must not wait for it) pass false. The entropy probe runs here, before any
// codec and on the caller's goroutine, because its verdict also routes the
// block: a block that will be stored raw (identity level, or hopeless) never
// visits a worker or a forked goroutine. A failure is recorded in w.err.
func (w *Writer) flushBlock(more bool) error {
	if len(w.blk.B) == 0 {
		return nil
	}
	compresses := w.ladder[w.level].Codec.ID() != compress.IDNone
	job := compressJob{
		level: w.level, staged: w.staged, block: w.blk,
		hopeless: compresses && !w.probeOff && probe.Hopeless(w.blk.B),
	}
	w.staged = 0
	if w.pipe == nil {
		forkable := w.width > 1 && compresses && !job.hopeless
		if forkable && more && w.forked < w.width-1 && !w.wireBound {
			w.fork(job)
			return nil
		}
		return w.closeBatch(job, forkable && (more || w.forked > 0))
	}
	// The pipeline owns the block from here (it releases it once the frame
	// is encoded or written); carry on in a fresh one.
	w.blk = block.Get(w.cfg.BlockSize)
	if compresses && !job.hopeless {
		w.err = w.pipe.submit(job)
	} else {
		w.err = w.pipe.pass(w.encode(job, block.Get(headerSize)))
	}
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
