package core_test

import (
	"encoding/binary"
	"math"
	"testing"

	"adaptio/internal/core"
)

// fuzzWindowLen is one encoded window: the rate's float64 bit pattern and
// the two byte totals, little endian, nothing filtered — NaN payloads, ±Inf,
// denormals, negative rates and negative or overflowing totals all reach the
// policy exactly as the fuzzer wrote them.
const fuzzWindowLen = 24

func decodeFuzzWindow(b []byte) core.Window {
	return core.Window{
		Rate:      math.Float64frombits(binary.LittleEndian.Uint64(b)),
		AppBytes:  int64(binary.LittleEndian.Uint64(b[8:])),
		WireBytes: int64(binary.LittleEndian.Uint64(b[16:])),
	}
}

// decisionBits is a Decision made comparable with ==: it carries the rates,
// NaN included, so those are compared as bit patterns.
type decisionBits struct {
	kind              core.DecisionKind
	from, to, backoff int
	rate, prevRate    uint64
}

func bitsOf(d core.Decision) decisionBits {
	return decisionBits{d.Kind, d.From, d.To, d.Backoff, math.Float64bits(d.Rate), math.Float64bits(d.PrevRate)}
}

func encodeFuzzWindows(ws ...core.Window) []byte {
	var out []byte
	for _, w := range ws {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(w.Rate))
		out = binary.LittleEndian.AppendUint64(out, uint64(w.AppBytes))
		out = binary.LittleEndian.AppendUint64(out, uint64(w.WireBytes))
	}
	return out
}

// FuzzDecider drives every selectable policy through the one dispatch the
// drivers use with arbitrary windows. Whatever arrives, a policy must answer
// within [0, levels) without the dispatch's clamp firing, keep PolicyStats
// monotone, agree step for step with a second instance of the same
// configuration, and report a LastDecision consistent with what it did.
// The committed corpus (testdata/fuzz/FuzzDecider) holds the shapes that
// reach the skeleton's corners: hostile values, a geometric climb that takes
// a backoff exponent past 62, ladder-edge probing on one- and two-level
// ladders, and a closed-loop-like step trace.
func FuzzDecider(f *testing.F) {
	var hostile []core.Window
	for i, r := range hostileRates {
		b := hostileBytes[i%len(hostileBytes)]
		hostile = append(hostile, core.Window{Rate: 50e6}, core.Window{Rate: r, AppBytes: b[0], WireBytes: b[1]})
	}
	f.Add(uint8(4), uint64(1), encodeFuzzWindows(hostile...))

	f.Fuzz(func(t *testing.T, levels8 uint8, seed uint64, data []byte) {
		levels := int(levels8)%6 + 1
		for _, name := range core.PolicyNames() {
			cfg := core.Config{Levels: levels, Seed: seed}
			a, b := core.MustNewPolicy(name, cfg), core.MustNewPolicy(name, cfg)
			var prev core.PolicyStats
			for step := 0; (step+1)*fuzzWindowLen <= len(data); step++ {
				w := decodeFuzzWindow(data[step*fuzzWindowLen:])
				before := a.Level()
				la, err := core.ObserveWindow(a, levels, w)
				if err != nil {
					t.Fatalf("%s step %d window %+v: %v", name, step, w, err)
				}
				lb, _ := core.ObserveWindow(b, levels, w)
				da, db := a.LastDecision(), b.LastDecision()
				if la != lb || bitsOf(da) != bitsOf(db) {
					t.Fatalf("%s step %d: instances disagree: level %d vs %d, decision %+v vs %+v", name, step, la, lb, da, db)
				}
				if da.From != before || da.To != la || a.Level() != la || da.To-da.From > 1 || da.From-da.To > 1 {
					t.Fatalf("%s step %d: level %d -> %d (Level() %d) but decision says %+v", name, step, before, la, a.Level(), da)
				}
				switch da.Kind {
				case core.DecisionHold, core.DecisionReward:
					if da.To != da.From {
						t.Fatalf("%s step %d: %s moved the level: %+v", name, step, da.Kind, da)
					}
				case core.DecisionRevert:
					if da.Backoff != 0 {
						t.Fatalf("%s step %d: revert left backoff %d: %+v", name, step, da.Backoff, da)
					}
				}
				ps := a.PolicyStats()
				if ps.Probes < prev.Probes || ps.Reverts < prev.Reverts || ps.Rewards < prev.Rewards ||
					ps.WastedProbes < prev.WastedProbes || ps.Observed != prev.Observed+1 {
					t.Fatalf("%s step %d: PolicyStats went %+v -> %+v", name, step, prev, ps)
				}
				prev = ps
			}
		}
	})
}
