package cloudsim

import (
	"fmt"
	"math"

	"adaptio/internal/corpus"
	"adaptio/internal/xrand"
)

// FileTransferResult extends TransferResult with durability accounting: on
// platforms with the host-page-cache anomaly, the VM considers the job done
// while gigabytes still sit in the host's RAM. The paper calls this out as
// the obstacle that made them exclude file I/O from the evaluation ("we
// found the aggressive caching mechanisms of some virtualization
// technologies to be a major obstacle which we intend to address for future
// work") — RunFileTransfer implements that future-work experiment.
type FileTransferResult struct {
	TransferResult
	// DurableSeconds is when the last byte actually reached the physical
	// disk (>= CompletionSeconds).
	DurableSeconds float64
	// CacheResidentAtCompletion is how many wire bytes sat in the host
	// cache when the application finished writing.
	CacheResidentAtCompletion int64
}

// RunFileTransfer simulates a bulk write to the VM's virtual disk through
// the compression module, mirroring Nephele's file channels. The decision
// scheme observes the application data rate exactly as in the network case
// — which, on platforms whose host absorbs writes into its page cache,
// means it observes RAM-speed bursts alternating with flush stalls instead
// of anything related to the disk. The experiment quantifies how badly this
// distorts the rate-based decisions.
func RunFileTransfer(cfg TransferConfig) (FileTransferResult, error) {
	disk, ok := diskTable[cfg.Platform]
	if !ok {
		return FileTransferResult{}, fmt.Errorf("cloudsim: unknown platform %v", cfg.Platform)
	}
	rng := xrand.New(cfg.Seed ^ 0xF11E)
	st := &fileStage{disk: disk, rng: rng}
	tr, err := runWindows(cfg, 48*3600, rng, st)
	res := FileTransferResult{TransferResult: tr}
	if err != nil {
		return res, err
	}
	res.CacheResidentAtCompletion = int64(st.dirty)
	res.DurableSeconds = tr.CompletionSeconds + st.dirty/1e6/disk.diskMBps
	return res, nil
}

// fileStage is RunFileTransfer's stage model: compression on the sender's
// core in front of the platform's virtual disk. It displays no guest
// metrics the related-work schemes could read.
type fileStage struct {
	disk diskParams
	rng  *xrand.RNG
	// dirty is the host page cache state (XEN model): wire bytes buffered
	// but not yet on disk. The flusher drains at disk speed continuously
	// once dirty data exists.
	dirty    float64
	diskRate float64 // this window's wire MB/s to the platters
}

func (s *fileStage) window(_ float64, p CodecProfile, kind corpus.Kind) stageWindow {
	ratio := p.Ratio[kind]
	cpuSec := (1/p.CompMBps[kind] + ratio/wireCPUMBps) * s.rng.NoiseFactor(0.012)
	s.diskRate = s.disk.diskMBps * s.rng.NoiseFactor(s.disk.sigma)

	ingestWire := s.diskRate // wire MB/s the VM's writes are accepted at
	if s.disk.hostCache {
		if s.dirty < s.disk.dirtyLimit {
			// Cache absorbs at RAM speed.
			ingestWire = s.disk.cacheMBps * s.rng.NoiseFactor(0.10)
		} else {
			// Writeback throttling: the guest is stalled to a
			// trickle until the flusher catches up.
			ingestWire = s.disk.stallMBps * s.rng.NoiseFactor(0.30)
		}
	}
	return stageWindow{
		appMBps:     1 / math.Max(cpuSec, ratio/ingestWire),
		cpuSecPerMB: cpuSec,
		compFrac:    0.5,
	}
}

func (s *fileStage) advance(wireBytes, dt float64) {
	if s.disk.hostCache {
		s.dirty += wireBytes / 1e6 * 1e6 // not a no-op in floating point; the seed goldens pin it
		s.dirty -= s.diskRate * 1e6 * dt // flusher drains continuously
		if s.dirty < 0 {
			s.dirty = 0
		}
	}
}
