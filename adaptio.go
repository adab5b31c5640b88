// Package adaptio is the public API of this repository: adaptive online
// compression for streams whose I/O bandwidth is shared and unpredictable,
// as in IaaS clouds.
//
// It implements the system of "Evaluating Adaptive Compression to Mitigate
// the Effects of Shared I/O in Clouds" (Hovestadt, Kao, Kliem, Warneke —
// IEEE IPDPS 2011): a compression module that sits between the application
// and the I/O layer, cuts the outgoing stream into self-contained 128 KB
// blocks, and every t seconds picks a compression level from an ordered
// ladder (NO / LIGHT / MEDIUM / HEAVY) using only the observed application
// data rate — no OS metrics, no training phase. Decisions follow the
// paper's Algorithm 1: optimistic neighbour probes under exponential
// backoff, immediate revert on rate degradation.
//
// # Quick start
//
//	w, err := adaptio.NewWriter(conn, adaptio.WriterConfig{})
//	if err != nil { ... }
//	io.Copy(w, data) // application writes, levels adapt every 2 s
//	w.Close()
//
//	r, err := adaptio.NewReader(conn)    // receiving side
//	io.Copy(dst, r)                      // codec switches are transparent
//
// The receiver needs no configuration: every block header carries its codec,
// so the compression level can change mid-stream without coordination.
//
// # Structure
//
// The implementation lives in internal packages, re-exported here:
//
//   - internal/core — the rate-based decision model (Algorithm 1) and the
//     one level-selection seam every layer shares: Policy, the Window a
//     driver observes, and the ObserveWindow dispatch
//   - internal/stream — block framing, adaptive Writer (with an optional
//     encode worker pool behind the same type) and Reader
//   - internal/compress — codec ladder: from-scratch LZ77 (lzfast, the
//     QuickLZ stand-in) and LZ77+range-coder (lzheavy, the LZMA stand-in)
//   - internal/nephele — a miniature Nephele dataflow engine whose network
//     and file channels compress transparently
//   - internal/cloudsim, internal/experiments — the simulation substrate
//     and harness that regenerate the paper's evaluation (see DESIGN.md
//     and EXPERIMENTS.md)
//
// Corrupt or hostile input never panics or over-allocates: framing errors
// fail fast wrapping stream.ErrBadFrame, and the tunnel exposes retry,
// idle-timeout and graceful-shutdown knobs. The fault model and hardening
// guarantees are documented in docs/robustness.md and exercised by the
// internal/faultio chaos suite.
package adaptio

import (
	"io"

	"adaptio/internal/compress"
	"adaptio/internal/core"
	"adaptio/internal/stream"
)

// Writer is the adaptive compression writer; see stream.Writer.
type Writer = stream.Writer

// Reader is the decompressing reader; see stream.Reader.
type Reader = stream.Reader

// WriterConfig configures a Writer. The zero value is the paper's
// configuration: four-level default ladder, t = 2 s, α = 0.2, 128 KB
// blocks, adaptive level selection.
type WriterConfig = stream.WriterConfig

// WindowStat describes one completed decision window.
type WindowStat = stream.WindowStat

// Stats aggregates a Writer's or a Reader's activity; see stream.Stats.
type Stats = stream.Stats

// Codec is the block-codec interface; custom codecs can be registered with
// RegisterCodec and used in custom ladders.
type Codec = compress.Codec

// Ladder is an ordered set of compression levels.
type Ladder = compress.Ladder

// Level is one entry of a Ladder.
type Level = compress.Level

// DeciderConfig configures a Decider: the standalone Algorithm 1 of
// NewDecider or a policy built by NewPolicy.
type DeciderConfig = core.Config

// Decider is the pluggable level-selection policy interface; AlgorithmOne is
// the paper's Algorithm 1 implementation, for callers who want the decision
// model without the stream layer. NewPolicy constructs learned alternatives
// by name.
type Decider = core.Decider

// AlgorithmOne is the paper-faithful Algorithm 1 policy.
type AlgorithmOne = core.AlgorithmOne

// Policy is what WriterConfig.Decider takes: a Decider, Static, or your own.
type Policy = core.Policy

// Static pins one level: WriterConfig{Decider: Static(LevelLight)}.
type Static = core.Static

// Paper defaults.
const (
	// DefaultAlpha is the rate tolerance band α = 0.2.
	DefaultAlpha = core.DefaultAlpha
	// DefaultBlockSize is the 128 KB block size.
	DefaultBlockSize = stream.DefaultBlockSize
)

// Ladder level indices of DefaultLadder, matching the paper's names.
const (
	LevelNo     = stream.LevelNo
	LevelLight  = stream.LevelLight
	LevelMedium = stream.LevelMedium
	LevelHeavy  = stream.LevelHeavy
)

// Adaptive is the CLIs' -static value for "decided at runtime": they hand the
// Writer Algorithm 1 for it and Static(n) for a level n. It is not a level:
// Static(Adaptive) is rejected.
const Adaptive = core.Adaptive

// NewWriter creates an adaptive compression writer in front of dst. Close
// it: a writer that has encoded a multi-block Write on several cores keeps
// its workers until Close; see stream.NewWriter.
func NewWriter(dst io.Writer, cfg WriterConfig) (*Writer, error) {
	return stream.NewWriter(dst, cfg)
}

// NewParallelWriter creates a Writer that compresses on a pool of workers of
// its own and runs ahead of the wire; see stream.NewParallelWriter.
func NewParallelWriter(dst io.Writer, cfg WriterConfig, workers int) (*Writer, error) {
	return stream.NewParallelWriter(dst, cfg, workers)
}

// NewReader creates a decompressing reader over src.
func NewReader(src io.Reader) (*Reader, error) {
	return stream.NewReader(src)
}

// NewDecider creates a standalone paper-faithful decision model.
func NewDecider(cfg DeciderConfig) (*AlgorithmOne, error) {
	return core.NewDecider(cfg)
}

// NewPolicy constructs a level-selection policy by registry name: "algone"
// (or empty) for the paper's Algorithm 1, "bandit" for the contextual-bandit
// probe gate, "ewma" for the trend-predictive variant. See docs/deciders.md.
func NewPolicy(name string, cfg DeciderConfig) (Decider, error) {
	return core.NewPolicy(name, cfg)
}

// DefaultLadder returns the paper's four-level ladder: NO, LIGHT (fast
// LZ77), MEDIUM (LZ77 with deeper match search) and HEAVY (LZ77 + range
// coder). A codec's Compress is its match loop and nothing else; whether a
// block is worth compressing at all is the Writer's verdict, taken once per
// block before a codec sees it.
func DefaultLadder() Ladder { return stream.DefaultLadder() }

// RegisterCodec makes a custom codec resolvable on the receive path, which
// otherwise decodes the four DefaultLadder codecs. Codec IDs are wire
// identifiers; duplicate registrations panic.
func RegisterCodec(c Codec) { compress.Register(c) }
