// Command actunnel runs an adaptive-compression TCP tunnel endpoint. A pair
// of actunnel processes transparently compresses any TCP application's
// traffic with the paper's rate-based scheme — the "infrastructure
// agnostic" deployment the paper argues for: no hypervisor, kernel or
// application changes, just a relay the cloud customer controls.
//
//	# on the remote VM (exit): forward decompressed traffic to the service
//	actunnel -mode exit -listen :9000 -target 127.0.0.1:5432
//
//	# locally (entry): applications connect here with plain TCP
//	actunnel -mode entry -listen 127.0.0.1:5432 -target remote-vm:9000
//
// Each connection direction adapts its compression level independently from
// its observed application data rate.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"adaptio"
	"adaptio/internal/block"
	"adaptio/internal/coord"
	"adaptio/internal/core"
	"adaptio/internal/obs"
	"adaptio/internal/tunnel"
)

func main() {
	var (
		mode        = flag.String("mode", "", "entry (plain in, compressed out) or exit (compressed in, plain out)")
		listen      = flag.String("listen", "", "address to listen on")
		target      = flag.String("target", "", "address to forward to (exit endpoint or final service)")
		window      = flag.Duration("window", 2*time.Second, "decision window t")
		alpha       = flag.Float64("alpha", adaptio.DefaultAlpha, "tolerance band alpha of the adaptive -decider; refused with -static or -coord")
		static      = flag.Int("static", adaptio.Adaptive, "static level 0..3, or -1 for adaptive")
		decider     = flag.String("decider", "", "level-selection policy for adaptive mode: algone (default), bandit, or ewma; refused with -static N or -coord")
		deciderSeed = flag.Uint64("decider-seed", 0, "seed for stochastic -decider policies; refused with -static N or -coord")
		quiet       = flag.Bool("q", false, "suppress per-connection statistics")
		flushIvl    = flag.Duration("flush-interval", 0, "a partial block is framed this long after the last frame, or at once if it is the first or follows a quiet interval (0 = default 5ms)")

		idleTimeout = flag.Duration("idle-timeout", 0, "tear down a connection direction after this long without traffic (0 = never)")
		dialRetries = flag.Int("dial-retries", 0, "extra dial attempts after the first fails, with exponential backoff")
		dialBackoff = flag.Duration("dial-backoff", tunnel.DefaultDialBackoff, "base backoff between dial attempts")
		grace       = flag.Duration("grace", 0, "drain time granted to active connections on shutdown (0 = close immediately)")
		maxConns    = flag.Int("max-conns", 0, "serve at most this many connections concurrently, shedding excess (0 = unlimited)")
		acceptQueue = flag.Int("accept-queue", 0, "connections beyond -max-conns that may wait for a slot before shedding (0 = shed immediately)")
		metricsAddr = flag.String("metrics-addr", "", "serve the JSON metrics snapshot over HTTP on this address (empty = off)")

		coordOn     = flag.Bool("coord", false, "coordinate compression levels across this endpoint's connections against a shared link budget instead of letting each adapt alone")
		coordBudget = flag.Float64("coord-budget", coord.DefaultBudgetBytesPerSec/1e6, "shared link budget for -coord, in MB/s of wire bytes")
		coordWeight = flag.Float64("coord-weight", 1, "fair-share weight of this endpoint's streams under -coord, clamped to [1e-6, 1e6]")
		coordTenant = flag.String("coord-tenant", "", "tenant label for this endpoint's streams under -coord")
	)
	flag.Parse()
	if *listen == "" || *target == "" || (*mode != "entry" && *mode != "exit") {
		flag.Usage()
		os.Exit(2)
	}

	reg := obs.NewRegistry()
	block.PublishMetrics(reg.Scope("block"))
	cfg := tunnel.Config{
		Window:        *window,
		Logf:          log.Printf,
		IdleTimeout:   *idleTimeout,
		DialRetries:   *dialRetries,
		DialBackoff:   *dialBackoff,
		ShutdownGrace: *grace,
		MaxConns:      *maxConns,
		AcceptQueue:   *acceptQueue,
		FlushInterval: *flushIvl,
		Obs:           reg.Scope("tunnel"),
	}
	levels := len(adaptio.DefaultLadder())
	if *coordOn {
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		switch {
		case *static != adaptio.Adaptive:
			log.Fatalf("actunnel: -coord is incompatible with -static (a pinned level leaves nothing to coordinate)")
		case set["alpha"]:
			log.Fatalf("actunnel: -alpha is incompatible with -coord (a coordinated stream has no tolerance band)")
		case *decider != "":
			log.Fatalf("actunnel: -decider is incompatible with -coord (a coordinated stream leaves nothing to decide)")
		case set["decider-seed"]:
			log.Fatalf("actunnel: -decider-seed is incompatible with -coord (a coordinated stream runs no stochastic decider)")
		}
		c, err := coord.New(coord.Config{
			BudgetBytesPerSec: *coordBudget * 1e6,
			Levels:            levels,
			Obs:               reg.Scope("coord"),
		})
		if err != nil {
			log.Fatalf("actunnel: %v", err)
		}
		stream := coord.StreamConfig{Weight: *coordWeight, Tenant: *coordTenant}
		cfg.Policy = func() core.Policy { return c.Register(stream) }
	} else {
		policy, err := core.PolicyFromFlags(flag.CommandLine, *static, *decider, core.Config{Levels: levels, Alpha: *alpha, Seed: *deciderSeed})
		if err != nil {
			log.Fatalf("actunnel: %v", err)
		}
		cfg.Policy = policy
	}
	if *metricsAddr != "" {
		go func() { log.Printf("actunnel: metrics server: %v", obs.ListenAndServe(*metricsAddr, reg)) }()
	}
	if !*quiet {
		names := adaptio.DefaultLadder().Names()
		cfg.OnDone = func(s tunnel.ConnStats) {
			line := fmt.Sprintf("%s: %d app B -> %d wire B (ratio %.3f), switches %d, levels",
				s.Direction, s.Stats.AppBytes, s.Stats.WireBytes, s.Stats.Ratio(), s.Stats.LevelSwitches)
			for lvl, blocks := range s.Stats.BlocksPerLevel {
				if blocks > 0 {
					line += fmt.Sprintf(" %s=%d", names[lvl], blocks)
				}
			}
			log.Print(line)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var (
		ep  *tunnel.Endpoint
		err error
	)
	if *mode == "entry" {
		ep, err = tunnel.ListenEntry(ctx, *listen, *target, cfg)
	} else {
		ep, err = tunnel.ListenExit(ctx, *listen, *target, cfg)
	}
	if err != nil {
		log.Fatalf("actunnel: %v", err)
	}
	log.Printf("actunnel %s endpoint on %s -> %s", *mode, ep.Addr(), *target)
	<-ctx.Done()
	ep.Close()
}
