// Command acload is the tunnel's soak and overload harness: a seeded,
// deterministic load generator (internal/loadgen) that ramps N concurrent
// client connections through an adaptive-compression tunnel pair and
// reports throughput, connection-cycle latency percentiles, shed counts,
// and peak goroutine/heap figures alongside the full obs metrics snapshot.
//
// By default it is self-contained — it starts an in-process echo sink plus
// an exit and an entry endpoint (with the configured admission limits) and
// hammers the entry:
//
//	acload -conns 256 -dur 60s -max-conns 128 -metrics-out soak.json
//
// Point it at an externally running entry (whose exit must lead to an echo
// service) with -addr:
//
//	acload -addr 127.0.0.1:5432 -conns 64 -dur 30s
//
// Exit status is non-zero when cycles failed mid-transfer (shedding is not
// a failure — it is the overload behaviour under test), when nothing
// completed, or when tunnel goroutines leak past the drain.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"runtime"
	"time"

	"adaptio"
	"adaptio/internal/block"
	"adaptio/internal/core"
	"adaptio/internal/corpus"
	"adaptio/internal/loadgen"
	"adaptio/internal/obs"
	"adaptio/internal/trace"
	"adaptio/internal/tunnel"
)

func main() {
	var (
		addr  = flag.String("addr", "", "external tunnel entry to load (empty = self-contained: in-process echo + exit + entry)")
		conns = flag.Int("conns", 64, "concurrent client workers")
		dur   = flag.Duration("dur", 10*time.Second, "run duration (0 = until -ops or interrupt)")
		ops   = flag.Int64("ops", 0, "total connection-cycle budget (0 = unbounded)")
		seed  = flag.Uint64("seed", 2011, "seed fixing every worker's operation plan")

		mixSpec  = flag.String("mix", "", "payload mix, e.g. 'high,moderate,low' or 'high=3,low=1' (empty = all three equally)")
		minSize  = flag.Int("min-size", 4<<10, "minimum payload bytes per cycle")
		maxSize  = flag.Int("max-size", 64<<10, "maximum payload bytes per cycle (sizes are log-uniform)")
		thinkMin = flag.Duration("think-min", 0, "minimum think time between a worker's cycles")
		thinkMax = flag.Duration("think-max", 0, "maximum think time between a worker's cycles")
		verify   = flag.Bool("verify", true, "verify echoed bytes match the sent payload")

		maxConns    = flag.Int("max-conns", 128, "entry MaxConns: concurrently served connections before queueing/shedding (0 = unlimited)")
		acceptQueue = flag.Int("accept-queue", 128, "entry AcceptQueue: waiting connections beyond -max-conns before shedding")
		grace       = flag.Duration("grace", 5*time.Second, "entry/exit drain grace on shutdown")
		window      = flag.Duration("window", 2*time.Second, "decision window t")
		alpha       = flag.Float64("alpha", adaptio.DefaultAlpha, "tolerance band alpha when -static -1; refused with -static N")
		static      = flag.Int("static", 1, "static compression level 0..3, or -1 for adaptive (default LIGHT: soak stresses connections, not the controller)")
		decider     = flag.String("decider", "", "level-selection policy when -static -1: algone (default), bandit, or ewma; refused with -static N")
		deciderSeed = flag.Uint64("decider-seed", 0, "seed for stochastic -decider policies; refused with -static N")

		metricsAddr = flag.String("metrics-addr", "", "serve the live JSON metrics snapshot over HTTP during the run")
		metricsOut  = flag.String("metrics-out", "", "write the final {report, metrics} JSON to this file (CI artifact)")
		traceOut    = flag.String("trace-out", "", "record completed-cycle bytes per decision window to this JSON trace file (replayable via expdriver -scenario with \"trace\")")
		minMBps     = flag.Float64("min-mbps", 0, "fail the run when aggregate application throughput lands below this many MB/s (0 = no gate)")
		quiet       = flag.Bool("q", false, "suppress per-cycle error logging")
	)
	flag.Parse()

	mix, err := corpus.ParseMix(*mixSpec)
	if err != nil {
		log.Fatalf("acload: %v", err)
	}
	if err := core.RefusePinnedFlags(flag.CommandLine, *static, *decider); err != nil {
		log.Fatalf("acload: %v", err)
	}
	if *decider != "" && *addr != "" {
		log.Fatalf("acload: -decider only applies to the self-contained tunnel pair, not an external -addr entry")
	}

	reg := obs.NewRegistry()
	block.PublishMetrics(reg.Scope("block"))
	if *metricsAddr != "" {
		go func() { log.Printf("acload: metrics server: %v", obs.ListenAndServe(*metricsAddr, reg)) }()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// Baseline for the post-drain leak check: everything started after
	// this point (echo sink, endpoints, workers) must be gone — modulo the
	// sink's accept goroutine — once the run drains.
	baselineGoroutines := runtime.NumGoroutine()

	target := *addr
	var endpoints []*tunnel.Endpoint
	if target == "" {
		tcfg := tunnel.Config{
			Window:        *window,
			ShutdownGrace: *grace,
		}
		echoAddr, err := startEcho()
		if err != nil {
			log.Fatalf("acload: echo sink: %v", err)
		}
		// Each endpoint gets its own policy constructor, so its decisions per
		// connection index repeat from run to run whatever the other does.
		policy := func() func() core.Policy {
			f, err := core.PolicyFromFlags(flag.CommandLine, *static, *decider, core.Config{Levels: len(adaptio.DefaultLadder()), Alpha: *alpha, Seed: *deciderSeed})
			if err != nil {
				log.Fatalf("acload: %v", err)
			}
			return f
		}
		exitCfg := tcfg
		exitCfg.Policy = policy()
		exit, err := tunnel.ListenExit(context.Background(), "127.0.0.1:0", echoAddr, exitCfg)
		if err != nil {
			log.Fatalf("acload: exit: %v", err)
		}
		entryCfg := tcfg
		entryCfg.Policy = policy()
		entryCfg.MaxConns = *maxConns
		entryCfg.AcceptQueue = *acceptQueue
		entryCfg.Obs = reg.Scope("tunnel")
		entry, err := tunnel.ListenEntry(context.Background(), "127.0.0.1:0", exit.Addr().String(), entryCfg)
		if err != nil {
			log.Fatalf("acload: entry: %v", err)
		}
		endpoints = []*tunnel.Endpoint{entry, exit}
		target = entry.Addr().String()
		log.Printf("acload: self-contained tunnel pair up (entry %s, max-conns %d, queue %d)", target, *maxConns, *acceptQueue)
	}

	lcfg := loadgen.Config{
		Addr:       target,
		Conns:      *conns,
		Ops:        *ops,
		Duration:   *dur,
		Seed:       *seed,
		Mix:        mix,
		MinPayload: *minSize,
		MaxPayload: *maxSize,
		MinThink:   *thinkMin,
		MaxThink:   *thinkMax,
		Verify:     *verify,
		Obs:        reg.Scope("loadgen"),
	}
	var recorder *trace.Recorder
	if *traceOut != "" {
		recorder = trace.NewRecorder(window.Seconds())
		lcfg.Recorder = recorder
	}
	if !*quiet {
		lcfg.Logf = log.Printf
	}
	log.Printf("acload: ramping %d workers against %s for %v (seed %d)", *conns, target, *dur, *seed)
	report, err := loadgen.Run(ctx, lcfg)
	if err != nil {
		log.Fatalf("acload: %v", err)
	}
	fmt.Println(report.String())

	if recorder != nil {
		wt := recorder.Snapshot()
		if len(wt.Windows) == 0 {
			log.Printf("acload: trace-out: no completed cycles to record, skipping %s", *traceOut)
		} else if err := wt.Save(*traceOut); err != nil {
			log.Fatalf("acload: %v", err)
		} else {
			log.Printf("acload: wrote %d-window trace (%d bytes of payload) to %s",
				len(wt.Windows), wt.TotalAppBytes(), *traceOut)
		}
	}

	// Drain the in-process endpoints, then verify their goroutines are
	// gone: the soak's leak check.
	leaked := 0
	if len(endpoints) > 0 {
		for _, ep := range endpoints {
			ep.Close()
		}
		leaked = residualGoroutines(baselineGoroutines)
		printTunnelCounters(reg)
		if leaked > 0 {
			fmt.Printf("LEAK: %d goroutine(s) above the pre-run baseline after drain\n", leaked)
		} else {
			fmt.Println("drain: zero goroutines leaked")
		}
	}

	if *metricsOut != "" {
		artifact := struct {
			Report         loadgen.Report  `json:"report"`
			Leaked         int             `json:"leaked_goroutines"`
			ThroughputMBps float64         `json:"throughput_mbps"`
			MinMBps        float64         `json:"min_mbps"`
			Metrics        json.RawMessage `json:"metrics"`
		}{report, leaked, report.ThroughputMBps(), *minMBps, json.RawMessage(reg.Snapshot())}
		data, err := json.MarshalIndent(artifact, "", "  ")
		if err != nil {
			log.Fatalf("acload: marshal artifact: %v", err)
		}
		if err := os.WriteFile(*metricsOut, data, 0o644); err != nil {
			log.Fatalf("acload: write %s: %v", *metricsOut, err)
		}
		log.Printf("acload: wrote metrics artifact to %s", *metricsOut)
	}

	switch {
	case report.Completed == 0:
		log.Fatal("acload: FAIL: zero completed cycles")
	case report.Failed > 0:
		log.Fatalf("acload: FAIL: %d cycles broke mid-transfer", report.Failed)
	case leaked > 0:
		log.Fatalf("acload: FAIL: %d goroutines leaked after drain", leaked)
	case *minMBps > 0 && report.ThroughputMBps() < *minMBps:
		log.Fatalf("acload: FAIL: aggregate throughput %.2f MB/s below the -min-mbps %.2f floor",
			report.ThroughputMBps(), *minMBps)
	}
}

// startEcho runs the in-process echo sink.
func startEcho() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				io.Copy(conn, conn)
				if tc, ok := conn.(*net.TCPConn); ok {
					tc.CloseWrite()
				}
			}()
		}
	}()
	return ln.Addr().String(), nil
}

// residualGoroutines polls for up to 3 s while teardown settles and returns
// how many goroutines remain above the pre-run baseline. The echo sink's
// accept loop (1 goroutine) is excluded from the count via the slack of
// comparing against the recorded baseline after its listener kept running.
func residualGoroutines(baseline int) int {
	deadline := time.Now().Add(3 * time.Second)
	for {
		// +1 tolerates the echo sink's accept goroutine, which has no
		// shutdown handle by design (process exit reaps it).
		n := runtime.NumGoroutine() - baseline - 1
		if n <= 0 || time.Now().After(deadline) {
			if n < 0 {
				n = 0
			}
			return n
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// printTunnelCounters summarizes the admission story of the run.
func printTunnelCounters(reg *obs.Registry) {
	get := func(name string) int64 {
		switch m := reg.Get(name).(type) {
		case *obs.Counter:
			return m.Value()
		case *obs.Gauge:
			return m.Value()
		}
		return 0
	}
	fmt.Printf("tunnel: accepted=%d shed=%d peak_active=%d idle_timeouts=%d\n",
		get("tunnel.conns.accepted"), get("tunnel.conns.shed"),
		get("tunnel.conns.peak"), get("tunnel.idle_timeouts"))
}
