// Command acsend streams data over TCP through the adaptive compression
// layer — the sender half of the paper's sample job (a Nephele sender task
// feeding a receiver over a network channel). Pair it with acrecv.
//
// Usage:
//
//	acsend -addr host:port [-gb 1] [-kind HIGH|MODERATE|LOW|SWITCH]
//	       [-static -1|0..3] [-window 2s] [-alpha 0.2] [-v]
//
// -static -1 (default) selects the adaptive DYNAMIC scheme; 0..3 pin the
// paper's NO/LIGHT/MEDIUM/HEAVY levels. -kind takes the classes in any case
// and the paper's file names (ptt5, alice29.txt, image.jpg), as acload -mix
// does; SWITCH alternates HIGH and LOW every 256 MB (a scaled-down Figure 6
// workload). With -v every decision window is logged: time, application
// rate, wire rate, level.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"time"

	"adaptio"
	"adaptio/internal/block"
	"adaptio/internal/core"
	"adaptio/internal/corpus"
	"adaptio/internal/obs"
)

func main() {
	var (
		addr   = flag.String("addr", "127.0.0.1:9911", "receiver address")
		gb     = flag.Float64("gb", 1, "data volume in GB (decimal)")
		kind   = flag.String("kind", "HIGH", "data compressibility: HIGH, MODERATE, LOW (or a paper file name) or SWITCH")
		static = flag.Int("static", adaptio.Adaptive, "static level 0..3, or -1 for adaptive")
		window = flag.Duration("window", 2*time.Second, "decision window t")
		alpha  = flag.Float64("alpha", adaptio.DefaultAlpha, "tolerance band alpha of the adaptive scheme; refused with -static N")
		verb   = flag.Bool("v", false, "log every decision window")

		metricsAddr = flag.String("metrics-addr", "", "serve the JSON metrics snapshot over HTTP on this address (empty = off)")
	)
	flag.Parse()
	policy, err := core.PolicyFromFlags(flag.CommandLine, *static, "", core.Config{Levels: len(adaptio.DefaultLadder()), Alpha: *alpha})
	if err != nil {
		fatal(err)
	}

	reg := obs.NewRegistry()
	block.PublishMetrics(reg.Scope("block"))
	if *metricsAddr != "" {
		go func() { fmt.Fprintf(os.Stderr, "acsend: metrics server: %v\n", obs.ListenAndServe(*metricsAddr, reg)) }()
	}

	src, err := dataSource(*kind)
	if err != nil {
		fatal(err)
	}
	conn, err := net.Dial("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	defer conn.Close()

	cfg := adaptio.WriterConfig{
		Window:  *window,
		Decider: policy(),
		Obs:     reg.Scope("stream").Scope("writer"),
	}
	names := adaptio.DefaultLadder().Names()
	if *verb {
		cfg.OnWindow = func(ws adaptio.WindowStat) {
			fmt.Printf("t=%6.1fs app=%8.2f MB/s wire=%8.2f MB/s level=%s -> %s\n",
				time.Since(start).Seconds(),
				ws.Rate/1e6,
				float64(ws.WireBytes)/ws.Elapsed.Seconds()/1e6,
				names[ws.Level], names[ws.NextLevel])
		}
	}
	w, err := adaptio.NewWriter(conn, cfg)
	if err != nil {
		fatal(err)
	}

	total := int64(*gb * 1e9)
	start = time.Now()
	if _, err := io.CopyN(w, src, total); err != nil {
		fatal(err)
	}
	if err := w.Close(); err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)
	st := w.Stats()
	fmt.Printf("sent %.2f GB app / %.2f GB wire in %.1f s (%.1f MB/s app, ratio %.3f, %d level switches)\n",
		float64(st.AppBytes)/1e9, float64(st.WireBytes)/1e9, elapsed.Seconds(),
		float64(st.AppBytes)/1e6/elapsed.Seconds(),
		st.Ratio(), st.LevelSwitches)
	for lvl, blocks := range st.BlocksPerLevel {
		if blocks > 0 {
			fmt.Printf("  %-7s %d blocks\n", names[lvl], blocks)
		}
	}
}

var start time.Time

// dataSource is the corpus stream -kind names: a class as corpus.ParseKind
// reads it, or SWITCH.
func dataSource(kind string) (io.Reader, error) {
	if strings.EqualFold(strings.TrimSpace(kind), "SWITCH") {
		return corpus.NewAlternatingReader([]corpus.Kind{corpus.High, corpus.Low}, 256<<20, 1), nil
	}
	k, err := corpus.ParseKind(kind)
	if err != nil {
		return nil, fmt.Errorf("unknown kind %q (want HIGH, MODERATE, LOW or SWITCH)", kind)
	}
	return corpus.NewFileReader(k, 1), nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "acsend: %v\n", err)
	os.Exit(1)
}
