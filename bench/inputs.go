package main

import (
	"math"

	"adaptio/internal/corpus"
	"adaptio/internal/xrand"
)

const (
	// opBytes is one bulk op: a segment the receiver verifies byte for
	// byte. A quarter MiB keeps at least tailBeyond samples beyond p99 on
	// the slowest workload (about 1300 ops in 16 s on scarce-jpeg).
	opBytes = 256 << 10
	// stripeBytes is the run length of one corpus kind in the mixed corpus.
	stripeBytes = 1 << 20
	// bulkCorpusBytes is the looped bulk input: far beyond any codec
	// window (blocks are independent), and a whole number of stripe cycles.
	bulkCorpusBytes = 24 << 20
	// echoCorpusBytes is the text the echo messages are cut from.
	echoCorpusBytes = 4 << 20
	// echoPlanLen is the number of distinct messages per connection before
	// the plan repeats.
	echoPlanLen = 4096
	echoMinMsg  = 128
	echoMaxMsg  = 16 << 10
)

// inputs is everything a workload feeds the program under test, generated
// from the seed in set-up. The program sees only the bytes.
type inputs struct {
	corpus []byte
	// plans holds, per echo connection, the messages it sends in order;
	// each is a slice of corpus.
	plans [][][]byte
}

// segment returns bulk op i: the corpus is looped in opBytes steps.
func (in *inputs) segment(i int) []byte {
	off := (i * opBytes) % len(in.corpus)
	return in.corpus[off : off+opBytes]
}

func uniformInputs(kind corpus.Kind, seed uint64) *inputs {
	return &inputs{corpus: corpus.Generate(kind, bulkCorpusBytes, seed)}
}

// mixedInputs interleaves HIGH, MODERATE and LOW data in 1 MiB stripes, so
// a bulk stream meets every compressibility class the codecs and the
// entropy probe distinguish.
func mixedInputs(seed uint64) *inputs {
	kinds := corpus.Kinds()
	per := bulkCorpusBytes / len(kinds)
	parts := make([][]byte, len(kinds))
	for i, k := range kinds {
		parts[i] = corpus.Generate(k, per, seed)
	}
	out := make([]byte, 0, bulkCorpusBytes)
	for off := 0; off < per; off += stripeBytes {
		for _, p := range parts {
			out = append(out, p[off:off+stripeBytes]...)
		}
	}
	return &inputs{corpus: out}
}

// echoInputs cuts, for each connection, a seeded plan of text messages
// whose sizes are log-uniform between echoMinMsg and echoMaxMsg: small
// messages, where per-frame cost dominates, are as common as large ones.
func echoInputs(seed uint64, conns int) *inputs {
	in := &inputs{corpus: corpus.Generate(corpus.Moderate, echoCorpusBytes, seed)}
	lo, hi := math.Log(echoMinMsg), math.Log(echoMaxMsg)
	for c := 0; c < conns; c++ {
		rng := xrand.New(seed ^ uint64(c+1)*0x9E3779B97F4A7C15)
		plan := make([][]byte, echoPlanLen)
		for i := range plan {
			size := int(math.Exp(lo + rng.Float64()*(hi-lo)))
			off := rng.Intn(len(in.corpus) - size)
			plan[i] = in.corpus[off : off+size]
		}
		in.plans = append(in.plans, plan)
	}
	return in
}
