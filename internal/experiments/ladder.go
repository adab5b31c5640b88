package experiments

import (
	"fmt"

	"adaptio/internal/cloudsim"
	"adaptio/internal/compress"
	"adaptio/internal/compress/flatecodec"
	"adaptio/internal/compress/lzfast"
	"adaptio/internal/compress/lzheavy"
	"adaptio/internal/core"
	"adaptio/internal/corpus"
	"adaptio/internal/stream"
)

// ExtendedLadder returns A6's six-level ladder, exercising the paper's remark
// that "it is conceivable to use the same compression algorithm at multiple
// levels but with different parameters": lzfast-hc appears at two search
// depths, a quarter and four times MEDIUM's own so that they sit either side
// of it in both speed and ratio, and DEFLATE sits between them and the range
// coder. The decision
// model needs no change for the larger ladder — dominated levels are simply
// probed and abandoned. DEFLATE is not one of the codecs a Reader resolves by
// default: a process that decodes this ladder's frames registers
// flatecodec.Codec{} first (compress.Register).
func ExtendedLadder() compress.Ladder {
	return compress.Ladder{
		{Name: "NO", Codec: compress.None()},
		{Name: "LIGHT", Codec: lzfast.Fast{}},
		{Name: "MEDIUM-", Codec: lzfast.HC{Depth: 3}},
		{Name: "MEDIUM+", Codec: lzfast.HC{Depth: 48}},
		{Name: "FLATE", Codec: flatecodec.Codec{Level: 6}},
		{Name: "HEAVY", Codec: lzheavy.Codec{}},
	}
}

// LadderRow is one (ladder, scenario) outcome of the A6 ablation.
type LadderRow struct {
	Ladder   string
	Scenario string
	Seconds  float64
	Switches int
}

// AblationLadder (A6) compares the paper's four-level ladder against the
// six-level extended ladder (same algorithms at more parameter settings),
// both live-calibrated from this repository's real codecs, on scenarios
// with different bandwidth pressure. It answers the paper's open question
// of whether more levels help: extra levels cost probing but offer finer
// rate/ratio tradeoffs when bandwidth is scarce.
func AblationLadder(totalBytes int64, seed uint64) ([]LadderRow, error) {
	ladders := []struct {
		name   string
		ladder compress.Ladder
	}{
		{"default-4", stream.DefaultLadder()},
		{"extended-6", ExtendedLadder()},
	}
	type scenario struct {
		name string
		kind corpus.Kind
		bg   int
	}
	scenarios := []scenario{
		{"HIGH/0conns", corpus.High, 0},
		{"HIGH/3conns", corpus.High, 3},
		{"MODERATE/3conns", corpus.Moderate, 3},
		{"LOW/0conns", corpus.Low, 0},
	}
	var rows []LadderRow
	for _, l := range ladders {
		profiles, err := Calibrate(l.ladder, 2<<20)
		if err != nil {
			return nil, err
		}
		for _, sc := range scenarios {
			res, err := cloudsim.RunTransfer(cloudsim.TransferConfig{
				Platform:   cloudsim.KVMParavirt,
				Kind:       cloudsim.ConstantKind(sc.kind),
				TotalBytes: totalBytes,
				Background: sc.bg,
				Scheme:     core.MustNewDecider(core.Config{Levels: len(l.ladder)}),
				Profiles:   profiles,
				Seed:       seed,
			})
			if err != nil {
				return nil, err
			}
			rows = append(rows, LadderRow{
				Ladder:   l.name,
				Scenario: sc.name,
				Seconds:  res.CompletionSeconds,
				Switches: res.LevelSwitches,
			})
		}
	}
	return rows, nil
}

// RenderLadder formats the A6 rows.
func RenderLadder(rows []LadderRow) string {
	out := "--- Ablation A6: ladder size (live-calibrated codecs) ---\n"
	out += fmt.Sprintf("%-14s %-18s %12s %10s\n", "ladder", "scenario", "completion/s", "switches")
	for _, r := range rows {
		out += fmt.Sprintf("%-14s %-18s %12.0f %10d\n", r.Ladder, r.Scenario, r.Seconds, r.Switches)
	}
	return out
}
