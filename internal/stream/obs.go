package stream

import (
	"fmt"
	"strconv"

	"adaptio/internal/compress"
	"adaptio/internal/core"
	"adaptio/internal/obs"
)

// rateBuckets spans the window app-rate histogram: 1 KB/s to ~8.4 GB/s in
// powers of two.
var rateBuckets = obs.ExpBuckets(1e3, 2, 24)

// writerObs bundles the Writer's observability instruments. All metrics are
// resolved once at construction; hot-path updates are lock-free atomic
// increments (nil-scope construction yields unregistered but functional
// metrics, so the hot path never branches on "is obs configured").
type writerObs struct {
	appBytes      *obs.Counter
	wireBytes     *obs.Counter
	blocks        *obs.Counter
	levelSwitches *obs.Counter
	rawFallbacks  *obs.Counter
	// probeSkips counts the RawFallbacks subset where the entropy pre-probe
	// skipped the codec outright (Stats.ProbeSkips).
	probeSkips *obs.Counter
	// copiedBytes / passthroughBytes split the application bytes by
	// user-space copy cost (see Stats.CopiedBytes): staged, moved by block
	// growth or codec-transformed bytes vs stored-raw bytes aliased onto
	// the wire.
	copiedBytes      *obs.Counter
	passthroughBytes *obs.Counter
	// Per-ladder-level byte accounting, indexed by level.
	levelAppBytes  []*obs.Counter
	levelWireBytes []*obs.Counter
	// windowRate observes the application data rate (bytes/second) of
	// every completed decision window — the cdr the Decider consumes.
	windowRate *obs.Histogram
	// decisions logs the controller's probe/reward/revert transitions.
	decisions *obs.EventLog
}

func newWriterObs(scope *obs.Scope, ladder compress.Ladder) writerObs {
	o := writerObs{
		appBytes:         scope.Counter("app_bytes"),
		wireBytes:        scope.Counter("wire_bytes"),
		blocks:           scope.Counter("blocks"),
		levelSwitches:    scope.Counter("level_switches"),
		rawFallbacks:     scope.Counter("raw_fallbacks"),
		probeSkips:       scope.Counter("probe_skips"),
		copiedBytes:      scope.Counter("copied_bytes"),
		passthroughBytes: scope.Counter("passthrough_bytes"),
		windowRate:       scope.Histogram("window_rate", rateBuckets),
		decisions:        scope.EventLog("decisions", 0),
	}
	for lvl := range ladder {
		label := "{level=" + strconv.Itoa(lvl) + "}"
		o.levelAppBytes = append(o.levelAppBytes, scope.Counter("app_bytes"+label))
		o.levelWireBytes = append(o.levelWireBytes, scope.Counter("wire_bytes"+label))
	}
	// Derived compression ratio (wire/app; 1.0 until bytes flow).
	scope.FloatFunc("ratio", func() float64 {
		return Stats{AppBytes: o.appBytes.Value(), WireBytes: o.wireBytes.Value()}.Ratio()
	})
	return o
}

// onDecision publishes one controller decision to the event log. Hold
// decisions (stable rate, backoff pending) are skipped: they carry no
// transition and would flood the bounded ring at one per window.
func (o *writerObs) onDecision(d core.Decision) {
	if d.Kind == core.DecisionHold {
		return
	}
	o.decisions.Add(d.Kind.String(), fmt.Sprintf(
		"level %d -> %d rate %.0f B/s prev %.0f B/s bck[%d]=%d",
		d.From, d.To, d.Rate, d.PrevRate, d.From, d.Backoff))
}
