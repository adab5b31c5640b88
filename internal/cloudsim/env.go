package cloudsim

import "math"

// This file is the fleet simulator's time-varying environment: the hooks the
// scenario engine (internal/scenario) uses to turn the static shared-NIC
// model of sharednic.go into diurnal, bursty, lossy and flapping workloads.
// Every hook is a pure function of simulated time, so a fleet run stays
// bit-deterministic for a given (config, seed) pair no matter how the
// scenario was authored.

// FleetEnv is the optional time-varying environment of a fleet run. Each
// function receives the simulated time in seconds at the start of the
// window; nil members mean "no perturbation". All functions must be pure
// (same t, same answer) for runs to be reproducible.
type FleetEnv struct {
	// Capacity multiplies the NIC's nominal capacity (bandwidth flaps,
	// co-located tenant load). Values are clamped at 0; nil means 1.
	Capacity func(tSec float64) float64

	// Loss is the packet loss fraction of the shared link in [0, 1); it
	// caps each stream's wire demand at the loss-limited TCP rate (see
	// lossWireCapMBps). Zero or nil disables the loss model.
	Loss func(tSec float64) float64

	// RTTSeconds is the link's base round-trip time used by the loss
	// model; it only matters when Loss is active. Zero or nil with active
	// loss falls back to DefaultRTTSeconds.
	RTTSeconds func(tSec float64) float64
}

// DefaultRTTSeconds is the loss model's round-trip time when a scenario
// enables packet loss without specifying one: an intra-region cloud path.
const DefaultRTTSeconds = 0.010

// simBlockBytes is the compression block size the loss model charges as
// per-block pipeline latency (the stream layer's 128 KiB default block:
// a block must be filled and compressed before its bytes can enter the
// socket, which inflates the effective RTT of slow codecs).
const simBlockBytes = 128 << 10

// mssBytes is the TCP maximum segment size used by the Mathis throughput
// bound.
const mssBytes = 1460

// lossWireCapMBps is the loss-limited wire throughput of one stream in
// MB/s: the Mathis bound MSS/(RTT*sqrt(2p/3)), with the stream's per-block
// compression latency added to the base RTT. This is the mechanism that
// lets a light codec overtake a heavy one on a lossy link — loss-limited
// TCP throughput is inversely proportional to the effective RTT, and a slow
// codec's block latency dominates that RTT: compressing a 128 KiB block at
// 8.9 MB/s adds ~15 ms before the bytes even reach the congestion window.
func lossWireCapMBps(loss, rttSec, compAppMBps float64) float64 {
	if loss <= 0 {
		return math.Inf(1)
	}
	if loss > 0.5 {
		loss = 0.5
	}
	if rttSec <= 0 {
		rttSec = DefaultRTTSeconds
	}
	effRTT := rttSec
	if compAppMBps > 0 {
		effRTT += simBlockBytes / (compAppMBps * 1e6)
	}
	return mssBytes / (effRTT * math.Sqrt(2*loss/3)) / 1e6
}
