// Command acprobe is the metric-accuracy probe of Section II. It runs the
// paper's measurement loop against the real /proc/stat of this machine: 1 s
// delta sampling of the CPU counters, reporting the USR/SYS/HIRQ/SIRQ/STEAL
// split — the exact data a guest-side adaptive compression scheme would base
// its decisions on. With -load it also runs one of the paper's auxiliary I/O
// load generators while sampling, which is the full Figure 1 methodology:
// run acprobe inside a VM and compare its output with the same probe on the
// host. The simulated Figure 1-3 reproduction is expdriver -fig1 -fig2 -fig3.
//
// Usage:
//
//	acprobe [-n samples] [-interval 1s] [-load netsend|netrecv|filewrite|fileread]
//	acprobe -live-fig1 [-n samples] [-interval 1s]
//
// -live is accepted and changes nothing: sampling is the only mode.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"adaptio/internal/ioload"
	"adaptio/internal/metrics"
)

func main() {
	var (
		_        = flag.Bool("live", false, "accepted and ignored: live sampling is the only mode")
		liveFig1 = flag.Bool("live-fig1", false, "run the full Figure 1 methodology live: all four I/O loads, sampled breakdown each")
		n        = flag.Int("n", 10, "number of live samples")
		interval = flag.Duration("interval", time.Second, "live sampling interval")
		load     = flag.String("load", "", "run an I/O load generator while sampling: netsend, netrecv, filewrite or fileread")
	)
	flag.Parse()

	if err := run(*liveFig1, *load, *n, *interval); err != nil {
		fmt.Fprintf(os.Stderr, "acprobe: %v\n", err)
		os.Exit(1)
	}
}

func run(liveFig1 bool, load string, n int, interval time.Duration) error {
	if liveFig1 {
		return runLiveFig1(n, interval)
	}
	ctx, cancel := context.WithCancel(context.Background())
	if load != "" {
		stop, err := startLoad(ctx, load)
		if err != nil {
			cancel()
			return err
		}
		defer stop()
	}
	defer cancel() // runs first: the load winds down before its files go
	return runLive(n, interval)
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
