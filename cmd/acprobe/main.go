// Command acprobe is the metric-accuracy probe of Section II. In -live mode
// it runs the paper's measurement loop against the real /proc/stat of this
// machine: 1 s delta sampling of the CPU counters, reporting the
// USR/SYS/HIRQ/SIRQ/STEAL split — the exact data a guest-side adaptive
// compression scheme would base its decisions on. With -load it also runs
// one of the paper's auxiliary I/O load generators while sampling, which is
// the full Figure 1 methodology: run acprobe inside a VM and compare its
// output with the same probe on the host. Without -live it prints the
// simulated Figure 1-3 reproduction (same output as expdriver -fig1 -fig2
// -fig3).
//
// Usage:
//
//	acprobe -live [-n samples] [-interval 1s] [-load netsend|netrecv|filewrite|fileread]
//	acprobe [-gb N] [-seed N] [-json-out probe.json]
//
// -json-out (simulation mode only) additionally writes the Figure 2/3
// throughput distributions as MB/s in the internal/benchfmt schema; the
// nightly workflow uploads it.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"adaptio/internal/benchfmt"
	"adaptio/internal/experiments"
	"adaptio/internal/ioload"
	"adaptio/internal/metrics"
)

func main() {
	var (
		live     = flag.Bool("live", false, "sample the real /proc/stat of this machine")
		liveFig1 = flag.Bool("live-fig1", false, "run the full Figure 1 methodology live: all four I/O loads, sampled breakdown each")
		n        = flag.Int("n", 10, "number of live samples")
		interval = flag.Duration("interval", time.Second, "live sampling interval")
		load     = flag.String("load", "", "run an I/O load generator while sampling: netsend, netrecv, filewrite or fileread")
		gb       = flag.Float64("gb", 50, "simulated data volume in GB")
		seed     = flag.Uint64("seed", 2011, "simulation seed")
		jsonOut  = flag.String("json-out", "", "also write Fig2/Fig3 distributions as a benchfmt JSON artifact to this path")
	)
	flag.Parse()

	if *liveFig1 {
		if err := runLiveFig1(*n, *interval); err != nil {
			fmt.Fprintf(os.Stderr, "acprobe: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *live {
		ctx, cancel := context.WithCancel(context.Background())
		if *load != "" {
			stop, err := startLoad(ctx, *load)
			if err != nil {
				fmt.Fprintf(os.Stderr, "acprobe: %v\n", err)
				os.Exit(1)
			}
			defer stop()
		}
		err := runLive(*n, *interval)
		cancel()
		if err != nil {
			fmt.Fprintf(os.Stderr, "acprobe: %v\n", err)
			os.Exit(1)
		}
		return
	}

	rows, err := experiments.Fig1CPUAccuracy(120, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "acprobe: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(experiments.RenderFig1(rows))
	vol := int64(*gb * 1e9)
	net, err := experiments.Fig2NetThroughput(vol, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "acprobe: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(experiments.RenderDist("Figure 2: network I/O throughput in the sending VM", "MBit/s", net))
	file, err := experiments.Fig3FileWriteThroughput(vol, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "acprobe: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(experiments.RenderDist("Figure 3: file I/O throughput (write) in the VM", "MB/s", file))
	if *jsonOut == "" {
		return
	}
	art := &benchfmt.File{
		Description: "acprobe Figure 2/3 simulated throughput distributions, mean MB/s per platform",
		Go:          runtime.Version(),
	}
	for _, r := range net {
		// Figure 2 samples are MBit/s; the artifact schema is MB/s.
		art.Add("Fig2NetThroughput/"+r.Platform.String(), "current", benchfmt.Measurement{MBPerS: r.Summary.Mean / 8})
	}
	for _, r := range file {
		art.Add("Fig3FileWrite/"+r.Platform.String(), "current", benchfmt.Measurement{MBPerS: r.Summary.Mean})
	}
	if err := benchfmt.WriteFile(*jsonOut, art); err != nil {
		fmt.Fprintf(os.Stderr, "acprobe: %v\n", err)
		os.Exit(1)
	}
}

// startLoad launches one of the paper's auxiliary load generators in the
// background and returns a cleanup function. Network loads run against a
// loopback sink/source; file loads use a temporary file.
func startLoad(ctx context.Context, kind string) (func(), error) {
	tmp := filepath.Join(os.TempDir(), "acprobe-load.bin")
	switch kind {
	case "netsend":
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		go ioload.Sink(ctx, ln)
		go ioload.NetSend(ctx, ln.Addr().String(), 0)
		return func() { ln.Close() }, nil
	case "netrecv":
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		go func() {
			// Saturating source feeding the receiver under test.
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				return
			}
			defer conn.Close()
			buf := make([]byte, 1<<20)
			for ctx.Err() == nil {
				if _, err := conn.Write(buf); err != nil {
					return
				}
			}
		}()
		go ioload.NetReceive(ctx, ln, 0)
		return func() { ln.Close() }, nil
	case "filewrite":
		go func() {
			for ctx.Err() == nil {
				ioload.FileWrite(ctx, tmp, 1<<30)
			}
		}()
		return func() { os.Remove(tmp) }, nil
	case "fileread":
		if _, err := ioload.FileWrite(ctx, tmp, 1<<30); err != nil {
			return nil, err
		}
		go func() {
			for ctx.Err() == nil {
				ioload.FileRead(ctx, tmp, 0)
			}
		}()
		return func() { os.Remove(tmp) }, nil
	default:
		return nil, fmt.Errorf("unknown load %q", kind)
	}
}

// runLiveFig1 reproduces the Figure 1 measurement on this machine: for each
// of the four I/O operations it runs the saturating load generator while
// delta-sampling /proc/stat, then prints the averaged breakdown. Running
// this inside a VM and on its host side by side IS the paper's experiment.
func runLiveFig1(n int, interval time.Duration) error {
	for _, kind := range []string{"netsend", "netrecv", "filewrite", "fileread"} {
		fmt.Printf("--- live Figure 1: %s ---\n", kind)
		ctx, cancel := context.WithCancel(context.Background())
		stop, err := startLoad(ctx, kind)
		if err != nil {
			cancel()
			return err
		}
		time.Sleep(interval) // let the load ramp up
		err = runLive(n, interval)
		cancel()
		stop()
		if err != nil {
			return err
		}
		fmt.Println()
	}
	fmt.Println("run the same probe on the host (or an unvirtualized peer) and compare totals;")
	fmt.Println("a large host-vs-guest gap is the paper's Section II-A effect.")
	return nil
}

func runLive(n int, interval time.Duration) error {
	sampler := metrics.NewSampler(metrics.FileSource("/proc/stat"))
	fmt.Printf("%-8s %6s %6s %6s %6s %6s %6s\n", "sample", "USR", "SYS", "HIRQ", "SIRQ", "STEAL", "idle")
	var agg metrics.Utilization
	got := 0
	for got < n {
		u, ok, err := sampler.Sample()
		if err != nil {
			return err
		}
		if ok {
			got++
			fmt.Printf("%-8d %6.1f %6.1f %6.1f %6.1f %6.1f %6.1f\n",
				got, u.USR, u.SYS, u.HIRQ, u.SIRQ, u.STEAL, u.Idle)
			agg.USR += u.USR
			agg.SYS += u.SYS
			agg.HIRQ += u.HIRQ
			agg.SIRQ += u.SIRQ
			agg.STEAL += u.STEAL
			agg.Idle += u.Idle
		}
		time.Sleep(interval)
	}
	f := 1 / float64(n)
	fmt.Printf("%-8s %6.1f %6.1f %6.1f %6.1f %6.1f %6.1f\n",
		"mean", agg.USR*f, agg.SYS*f, agg.HIRQ*f, agg.SIRQ*f, agg.STEAL*f, agg.Idle*f)
	if agg.STEAL > 0 {
		fmt.Println("note: nonzero STEAL time - this machine is itself virtualized.")
	}
	return nil
}
