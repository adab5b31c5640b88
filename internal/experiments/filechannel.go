package experiments

import (
	"fmt"
	"strings"

	"adaptio/internal/cloudsim"
	"adaptio/internal/corpus"
)

// FileChannelRow is one cell of the A5 file-channel experiment.
type FileChannelRow struct {
	Platform cloudsim.Platform
	Kind     corpus.Kind
	Scheme   string
	// CompletionSeconds is when the application finished writing (the
	// VM's view); DurableSeconds is when the bytes actually hit the disk.
	CompletionSeconds float64
	DurableSeconds    float64
	CacheResidentGB   float64
	LevelSwitches     int
	MeanLevel         float64
}

// FileChannel runs the paper's future-work experiment (DESIGN.md A5):
// adaptive compression on *file* channels. On KVM the guest's observed
// write rate tracks the disk, so the rate-based model works as it does for
// the network. On XEN the host page cache feeds the model RAM-speed bursts
// and flush stalls; the experiment quantifies the resulting decision
// quality using durable completion time (when data actually reaches the
// disk) as the honest metric.
func FileChannel(totalBytes int64, seed uint64) ([]FileChannelRow, error) {
	if totalBytes == 0 {
		totalBytes = FiftyGB
	}
	var rows []FileChannelRow
	for _, platform := range []cloudsim.Platform{cloudsim.KVMParavirt, cloudsim.XenParavirt} {
		for _, kind := range []corpus.Kind{corpus.High, corpus.Low} {
			for si, name := range SchemeNames {
				res, err := cloudsim.RunFileTransfer(cloudsim.TransferConfig{
					Platform:   platform,
					Kind:       cloudsim.ConstantKind(kind),
					TotalBytes: totalBytes,
					Scheme:     newScheme(si),
					Profiles:   cloudsim.ReferenceProfiles(),
					Seed:       seed ^ uint64(platform)<<16 ^ uint64(kind)<<8,
				})
				if err != nil {
					return nil, err
				}
				rows = append(rows, FileChannelRow{
					Platform:          platform,
					Kind:              kind,
					Scheme:            name,
					CompletionSeconds: res.CompletionSeconds,
					DurableSeconds:    res.DurableSeconds,
					CacheResidentGB:   float64(res.CacheResidentAtCompletion) / 1e9,
					LevelSwitches:     res.LevelSwitches,
					MeanLevel:         res.MeanLevel(),
				})
			}
		}
	}
	return rows, nil
}

// RenderFileChannel formats the A5 rows grouped by platform and kind.
func RenderFileChannel(rows []FileChannelRow) string {
	var sb strings.Builder
	sb.WriteString("--- Ablation A5 (paper future work): adaptive compression on file channels ---\n")
	sb.WriteString("completion = VM's view of job end; durable = data actually on disk.\n")
	var last string
	for _, r := range rows {
		group := fmt.Sprintf("%v, %v data:", r.Platform, r.Kind)
		if group != last {
			fmt.Fprintf(&sb, "%s\n", group)
			last = group
		}
		fmt.Fprintf(&sb, "  %-8s completion %6.0f s  durable %6.0f s  cached %5.1f GB  switches %3d  mean lvl %.2f\n",
			r.Scheme, r.CompletionSeconds, r.DurableSeconds, r.CacheResidentGB, r.LevelSwitches, r.MeanLevel)
	}
	return sb.String()
}
