package cloudsim

import (
	"errors"

	"adaptio/internal/xrand"
)

// ChunkBytes is the measurement granularity of Section II-B: the paper's
// auxiliary programs "record timestamps after every 20 MB of generated or
// consumed I/O data".
const ChunkBytes = 20 << 20

// NetThroughputSamples simulates the Figure 2 experiment for one platform:
// a VM sends totalBytes over a single TCP stream and records the
// application-layer rate of every 20 MB chunk. The returned samples are in
// MBit/s, matching the figure's axis.
func NetThroughputSamples(p Platform, totalBytes int64, seed uint64) ([]float64, error) {
	net, ok := netTable[p]
	if !ok {
		return nil, errors.New("cloudsim: unknown platform")
	}
	rng := xrand.New(seed ^ uint64(p)<<32 ^ 0xF16002)
	flake := newFlakeProcess(net, rng.Fork())
	var samples []float64
	now := 0.0
	for sent := int64(0); sent < totalBytes; sent += ChunkBytes {
		rate := net.appMBps * rng.NoiseFactor(net.sigma) * flake.factor(now)
		if rate < minNetMBps {
			rate = minNetMBps
		}
		now += (ChunkBytes / 1e6) / rate
		samples = append(samples, rate*8) // MB/s -> MBit/s
	}
	return samples, nil
}

// FileWriteSamples simulates the Figure 3 experiment: a VM writes totalBytes
// to its virtual disk and records the rate of every 20 MB chunk, in MB/s.
//
// On XEN the guest's raw writes land in the *host's* page cache: the
// observed rate is the cache's RAM-speed rate until the host's dirty limit
// is reached, at which point the host flushes to the physical disk and the
// guest observes a near-stall ("the data rate displayed inside the virtual
// machine dropped to a few MB/s"). The alternation produces the spuriously
// high mean and extreme variance the paper reports.
//
// cacheResident is how many bytes remain un-flushed in the host page cache
// at the end (zero for platforms without the host-cache anomaly). The
// paper: "after having written the 50 GB ... large portions of the data had
// not actually been written to the physical hard drive".
func FileWriteSamples(p Platform, totalBytes int64, seed uint64) (samples []float64, cacheResident int64, err error) {
	d, ok := diskTable[p]
	if !ok {
		return nil, 0, errors.New("cloudsim: unknown platform")
	}
	rng := xrand.New(seed ^ uint64(p)<<32 ^ 0xD15C)
	dirty := 0.0 // bytes buffered in the host page cache
	for written := int64(0); written < totalBytes; written += ChunkBytes {
		var rate float64
		if d.hostCache {
			if dirty < d.dirtyLimit {
				// Absorbed by host RAM at cache speed.
				rate = d.cacheMBps * rng.NoiseFactor(0.10)
				dirty += ChunkBytes
			} else {
				// Host flushing: guest sees a stall until the
				// cache has drained. Model one stalled chunk per
				// disk-speed's worth of drain.
				rate = d.stallMBps * rng.NoiseFactor(0.30)
				dirty -= d.dirtyLimit * 0.45 // flusher writes out a batch
				if dirty < 0 {
					dirty = 0
				}
			}
		} else {
			rate = d.diskMBps * rng.NoiseFactor(d.sigma)
		}
		if rate < 0.1 {
			rate = 0.1
		}
		samples = append(samples, rate)
	}
	return samples, int64(dirty), nil
}
