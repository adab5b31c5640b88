package main

import (
	"sort"

	"adaptio/internal/stats"
)

// levelNames are the ladder levels as the level-share metrics spell them.
var levelNames = [4]string{"no", "light", "medium", "heavy"}

// layerReadings derives the workload's own part of the per-layer ledger:
// what the spans and the program's counters say about the traced run m, and
// what the runtime says about ref, the untraced run of the same workload and
// seed, which is also what m is compared with for the tracing overhead.
func (m *measured) layerReadings(ref *measured) map[string]float64 {
	s := m.s
	r := make(map[string]float64)
	runNs := float64(m.to.at.Sub(m.from.at))
	from, to := s.e.rec.since(m.from.at), s.e.rec.since(m.to.at)
	lt := selfTimes(m.spans, from, to)
	d := m.to.stream.sub(m.from.stream)
	appMB := m.appBytes() / 1e6

	r["stream.probe_skip_share"] = ratio(float64(d.probeSkips), float64(d.blocks))
	r["stream.raw_fallback_share"] = ratio(float64(d.rawFallbacks), float64(d.blocks))
	r["stream.copied_per_app_byte"] = ratio(float64(d.copied), float64(d.app))
	for lvl, name := range levelNames {
		r["stream.level_share."+name] = ratio(float64(d.levelApp[lvl]), float64(d.app))
	}
	r["core.switches"] = float64(d.switches)

	// Spans around the stream layer's own calls exist where the benchmark
	// makes those calls: the direct stream workloads.
	r["stream.writer.busy_share"] = float64(lt["stream.writer.write"].self) / runNs
	r["stream.writer.wire_wait_share"] = float64(lt["wire.write"].total) / runNs
	r["stream.reader.busy_share"] = float64(lt["stream.reader.read"].self) / runNs
	r["stream.reader.wait_share"] = float64(lt["wire.read"].total) / runNs
	generators := max(s.echo, 1)
	r["gen.write_block_share"] = float64(lt[s.writeSpan].total) / runNs / float64(generators)

	if s.paced != nil {
		r["wire.utilisation"] = float64(m.to.sent-m.from.sent) / s.paced.sched.allowed()
		r["wire.sleep_share"] = float64(m.to.slept-m.from.slept) / runNs
	}

	if s.observed != nil {
		var before, last observed // counters entering and leaving the timed run
		windows := 0
		for _, o := range s.observed.log {
			switch {
			case o.at.Before(m.from.at):
				before = o
			case o.at.Before(m.to.at):
				windows++
				last = o
			}
		}
		if windows > 0 {
			probes := last.stats.Probes - before.stats.Probes
			r["core.windows"] = float64(windows)
			r["core.probes"] = float64(probes)
			r["core.wasted_probe_share"] = ratio(float64(last.stats.WastedProbes-before.stats.WastedProbes), float64(probes))
		}
		if o := lt["core.observe"]; o.count > 0 {
			r["core.observe_ns"] = float64(o.total) / float64(o.count)
		}
	}

	if len(s.tunnelScopes) > 0 {
		var copied, relayed int64
		for _, sc := range s.tunnelScopes {
			copied += counter(s.reg, sc+".relay.bytes_copied")
			relayed += counter(s.reg, sc+".relay.tx_app_bytes") + counter(s.reg, sc+".relay.rx_app_bytes")
		}
		// The relay publishes these when a connection ends, so they cover
		// the whole connection, warm-up included.
		r["tunnel.copied_per_byte_relayed"] = ratio(float64(copied), float64(relayed))
		r["tunnel.wire_writes_per_mb"] = ratio(float64(m.to.writes-m.from.writes), appMB)
	}
	if s.echo > 0 {
		// Every message crosses a compress path twice: out through the
		// entry, back through the exit.
		crossings := 2 * float64(len(m.ops))
		r["stream.frames_per_msg"] = ratio(float64(d.blocks), crossings)
		r["stream.wire_bytes_per_msg"] = ratio(float64(d.wire), crossings)
		holds := flushHolds(m.spans, from, to, "gen.write", "tunnel.entry.wire.write")
		holds = append(holds, flushHolds(m.spans, from, to, "echo.write", "tunnel.exit.wire.write")...)
		r["tunnel.flush_hold_ms_p50"] = stats.Quantile(holds, 0.5)
	}

	// What the runtime and the arena did is read off the untraced run: the
	// recorder's own allocations and CPU would otherwise be in it. CPU per
	// GB and the latency tail are end-to-end metrics that BENCHMARK.json
	// cannot bound on every workload (a handful of HEAVY probe windows decide
	// them on the adaptive ones), so its driver sees them here.
	p, q, refMB := ref.to.proc, ref.from.proc, ref.appBytes()/1e6
	r["block.gets_per_mb"] = ratio(float64(p.blockGets-q.blockGets), refMB)
	r["block.discards"] = float64(p.blockDisc - q.blockDisc)
	r["block.in_use_at_end"] = float64(ref.inUse + m.inUse)
	r["proc.allocs_per_mb"] = ratio(float64(p.mallocs-q.mallocs), refMB)
	r["proc.alloc_bytes_per_mb"] = ratio(float64(p.allocBytes-q.allocBytes), refMB)
	r["proc.gc_pause_ms"] = float64(p.gcPauseNs-q.gcPauseNs) / 1e6
	r["proc.cpu_s_per_gb"] = ref.cpuSecondsPerGB()
	r["gen.rtt_p99_ms"] = stats.Quantile(ref.latencyXs(), 0.99)

	if s.echo > 0 {
		refP50 := ref.latencyMs().Median
		r["trace.overhead_share"] = ratio(m.latencyMs().Median-refP50, refP50)
	} else {
		r["trace.overhead_share"] = tax(m.goodputMBps(), ref.goodputMBps())
	}
	return r
}

// flushHolds returns, in ms, how long each message waited between the
// write that handed it to the tunnel (spans named write) and the first wire
// write that followed on the same stream (spans named wire): the time the
// compress path held it for more bytes.
func flushHolds(spans []span, from, to int64, write, wire string) []float64 {
	byStream := make(map[int][]span)
	for _, s := range spans {
		if (s.Name == write || s.Name == wire) && s.Start >= from && s.Start < to {
			byStream[s.Stream] = append(byStream[s.Stream], s)
		}
	}
	var holds []float64
	for _, ss := range byStream {
		sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
		pending := int64(-1)
		for _, s := range ss {
			switch {
			case s.Name == write && pending < 0:
				pending = s.Start
			case s.Name == wire && pending >= 0:
				holds = append(holds, float64(s.Start-pending)/1e6)
				pending = -1
			}
		}
	}
	return holds
}
