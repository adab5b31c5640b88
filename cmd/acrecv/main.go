// Command acrecv receives an adaptively compressed TCP stream (from acsend)
// and reports the decompressed volume and application-level throughput.
// The receiver is entirely self-configuring: every block carries its codec
// ID, so level switches on the sender need no coordination.
//
// Usage:
//
//	acrecv [-listen host:port] [-once] [-metrics-addr host:port]
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"adaptio"
	"adaptio/internal/block"
	"adaptio/internal/obs"
)

// readerObs accumulates decode-side totals across connections for the
// -metrics-addr snapshot ("stream.reader.*").
type readerObs struct {
	appBytes  *obs.Counter
	wireBytes *obs.Counter
	blocks    *obs.Counter
	conns     *obs.Counter
}

func main() {
	var (
		listen      = flag.String("listen", "127.0.0.1:9911", "listen address")
		once        = flag.Bool("once", false, "exit after one connection")
		metricsAddr = flag.String("metrics-addr", "", "serve the JSON metrics snapshot over HTTP on this address (empty = off)")
	)
	flag.Parse()

	reg := obs.NewRegistry()
	block.PublishMetrics(reg.Scope("block"))
	rs := reg.Scope("stream").Scope("reader")
	ro := &readerObs{
		appBytes:  rs.Counter("app_bytes"),
		wireBytes: rs.Counter("wire_bytes"),
		blocks:    rs.Counter("blocks"),
		conns:     rs.Counter("conns"),
	}
	if *metricsAddr != "" {
		go func() { fmt.Fprintf(os.Stderr, "acrecv: metrics server: %v\n", obs.ListenAndServe(*metricsAddr, reg)) }()
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("acrecv: listening on %s\n", ln.Addr())
	for {
		conn, err := ln.Accept()
		if err != nil {
			fatal(err)
		}
		handle(conn, ro)
		if *once {
			return
		}
	}
}

func handle(conn net.Conn, ro *readerObs) {
	defer conn.Close()
	ro.conns.Inc()
	r, err := adaptio.NewReader(conn)
	if err != nil {
		fmt.Fprintf(os.Stderr, "acrecv: %v\n", err)
		return
	}
	start := time.Now()
	n, err := io.Copy(io.Discard, r)
	elapsed := time.Since(start)
	st := r.Stats()
	ro.appBytes.Add(st.AppBytes)
	ro.wireBytes.Add(st.WireBytes)
	ro.blocks.Add(st.Blocks)
	if err != nil {
		fmt.Fprintf(os.Stderr, "acrecv: stream error after %d bytes: %v\n", n, err)
		return
	}
	fmt.Printf("received %.2f GB app / %.2f GB wire in %.1f s (%.1f MB/s app, %d blocks)\n",
		float64(st.AppBytes)/1e9, float64(st.WireBytes)/1e9, elapsed.Seconds(), float64(n)/1e6/elapsed.Seconds(), st.Blocks)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "acrecv: %v\n", err)
	os.Exit(1)
}
