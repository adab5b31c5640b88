package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// referenceModel is an independent, deliberately naive transcription of
// Algorithm 1 and its surrounding prose, written without looking at the
// production Decider's structure. The property test cross-checks that the
// two implementations make identical decisions on arbitrary rate streams —
// a faithfulness guard for the paper's pseudocode.
type referenceModel struct {
	levels int
	alpha  float64

	ccl      int
	c        int
	inc      bool
	bck      []int
	pdr      float64
	havePrev bool
}

func newReferenceModel(levels int, alpha float64) *referenceModel {
	return &referenceModel{levels: levels, alpha: alpha, inc: true, bck: make([]int, levels)}
}

func (m *referenceModel) observe(cdr float64) int {
	if !m.havePrev {
		m.pdr = cdr
		m.havePrev = true
	}

	// --- Algorithm 1, lines 1-29 ---
	d := cdr - m.pdr // line 1
	m.c++            // line 2
	ncl := m.ccl     // line 3
	isProbe := false
	isRevert := false
	abs := d
	if abs < 0 {
		abs = -abs
	}
	if abs <= m.alpha*m.pdr { // line 4
		if pow2 := 1 << uint(min(m.bck[m.ccl], 62)); m.c >= pow2 { // line 6
			if m.inc { // lines 8-12
				ncl = ncl + 1
			} else {
				ncl = ncl - 1
			}
			m.c = 0 // line 13
			isProbe = true
		}
	} else if d > 0 { // line 15
		m.bck[m.ccl]++ // line 17
		m.c = 0        // line 18
	} else { // line 19
		m.bck[m.ccl] = 0 // line 21
		if m.inc {       // lines 22-26
			ncl = ncl - 1
		} else {
			ncl = ncl + 1
		}
		m.c = 0 // line 27
		isRevert = true
	}
	// --- end of Algorithm 1 ---

	m.pdr = cdr

	// Edge handling as documented on Decider.Observe: probes flip
	// direction at the ladder edges, reverts clamp.
	if ncl < 0 {
		if isProbe {
			ncl = 1
			if ncl > m.levels-1 {
				ncl = m.levels - 1
			}
		} else {
			ncl = 0
		}
	}
	if ncl > m.levels-1 {
		if isProbe {
			ncl = m.levels - 2
			if ncl < 0 {
				ncl = 0
			}
		} else {
			ncl = m.levels - 1
		}
	}
	_ = isRevert

	if ncl != m.ccl { // "inc is usually updated outside of the algorithm"
		m.inc = ncl > m.ccl
		m.ccl = ncl
	}
	return m.ccl
}

// TestDeciderMatchesReferenceModel: the production Decider and the naive
// transcription agree decision-for-decision on arbitrary rate streams.
func TestDeciderMatchesReferenceModel(t *testing.T) {
	prop := func(seed int64, levels8 uint8, alphaPct uint8, n uint16) bool {
		levels := int(levels8)%7 + 1
		alpha := float64(alphaPct%80)/100 + 0.01
		d := MustNewDecider(Config{Levels: levels, Alpha: alpha})
		ref := newReferenceModel(levels, alpha)
		rnd := rand.New(rand.NewSource(seed))
		rate := 100.0
		for i := 0; i < int(n)%2000; i++ {
			switch rnd.Intn(5) {
			case 0:
				rate = rnd.Float64() * 1000
			case 1:
				rate *= 1 + rnd.NormFloat64()*0.1
				if rate < 0 {
					rate = 0
				}
			case 2:
				rate = 0
			case 3:
				rate *= 2
			default:
				// hold
			}
			if d.Observe(rate) != ref.observe(rate) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300}
	if testing.Short() {
		cfg.MaxCount = 60
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatalf("production decider diverged from the Algorithm 1 reference model: %v", err)
	}
}

// TestDeciderMatchesReferenceLongRun runs one long deterministic stream to
// also compare internal state evolution (backoff values).
func TestDeciderMatchesReferenceLongRun(t *testing.T) {
	d := MustNewDecider(Config{Levels: 4, Alpha: 0.2})
	ref := newReferenceModel(4, 0.2)
	rnd := rand.New(rand.NewSource(42))
	rates := []float64{80, 200, 140, 25}
	lvl, rlvl := 0, 0
	for i := 0; i < 20000; i++ {
		r := rates[lvl] * (1 + rnd.NormFloat64()*0.05)
		lvl = d.Observe(r)
		rlvl = ref.observe(r)
		if lvl != rlvl {
			t.Fatalf("step %d: decider %d vs reference %d", i, lvl, rlvl)
		}
		for l := 0; l < 4; l++ {
			if d.bck[l] != ref.bck[l] {
				t.Fatalf("step %d: backoff[%d] %d vs %d", i, l, d.bck[l], ref.bck[l])
			}
		}
	}
}
