// Command acpipe is an adaptive-compression pipe filter, the gzip-shaped
// face of the library: it compresses stdin to stdout (or decompresses with
// -d) using the rate-based adaptive scheme. Because the decision input is
// the application data rate, acpipe automatically compresses harder when
// the downstream pipe is slow and backs off to plain copying when the pipe
// is fast — per the paper, with zero configuration.
//
// Usage:
//
//	tar c /data | acpipe | ssh host 'acpipe -d | tar x'
//	acpipe [-d] [-static -1|0..3] [-window 2s] [-alpha 0.2] [-p 1] [-stats]
//
// -p sets the compress side's encode workers; -d accepts it and ignores it,
// since one core decodes faster than the encoders produce.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"adaptio"
)

func main() {
	var (
		dec      = flag.Bool("d", false, "decompress")
		static   = flag.Int("static", adaptio.Adaptive, "static level 0..3, or -1 for adaptive")
		window   = flag.Duration("window", 2*time.Second, "decision window t")
		alpha    = flag.Float64("alpha", adaptio.DefaultAlpha, "tolerance band alpha of the adaptive scheme; refused with -static N")
		parallel = flag.Int("p", 1, "compress blocks on this many parallel workers (compress side only)")
		stats    = flag.Bool("stats", false, "print stream statistics to stderr on completion")
	)
	flag.Parse()

	if *dec {
		if err := decompress(os.Stdin, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	alphaSet := false
	flag.Visit(func(f *flag.Flag) { alphaSet = alphaSet || f.Name == "alpha" })
	if alphaSet && *static != adaptio.Adaptive {
		fatal(errors.New("-alpha is incompatible with -static (a pinned level has no tolerance band)"))
	}
	var statsOut io.Writer
	if *stats {
		statsOut = os.Stderr
	}
	if err := compressStream(os.Stdin, os.Stdout, *static, *window, *alpha, *parallel, statsOut); err != nil {
		fatal(err)
	}
}

// compressStream compresses in to out; a non-nil stats receives the stream
// statistics once the stream is closed.
func compressStream(in io.Reader, out io.Writer, static int, window time.Duration, alpha float64, parallel int, stats io.Writer) error {
	var policy adaptio.Policy = adaptio.Static(static)
	if static == adaptio.Adaptive {
		dec, err := adaptio.NewDecider(adaptio.DeciderConfig{Levels: len(adaptio.DefaultLadder()), Alpha: alpha})
		if err != nil {
			return err
		}
		policy = dec
	}
	if parallel < 0 {
		return fmt.Errorf("negative -p %d", parallel)
	}
	w, err := adaptio.NewParallelWriter(out, adaptio.WriterConfig{Window: window, Decider: policy}, max(parallel, 1))
	if err != nil {
		return err
	}
	if _, err := io.Copy(w, in); err != nil {
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	if stats != nil {
		st := w.Stats()
		names := adaptio.DefaultLadder().Names()
		fmt.Fprintf(stats, "acpipe: %d app bytes -> %d wire bytes (ratio %.3f), %d blocks, %d switches\n",
			st.AppBytes, st.WireBytes, st.Ratio(), st.Blocks, st.LevelSwitches)
		for lvl, blocks := range st.BlocksPerLevel {
			if blocks > 0 {
				fmt.Fprintf(stats, "acpipe:   %-7s %d blocks\n", names[lvl], blocks)
			}
		}
	}
	return nil
}

func decompress(in io.Reader, out io.Writer) error {
	r, err := adaptio.NewReader(in)
	if err != nil {
		return err
	}
	defer r.Close()
	_, err = io.Copy(out, r)
	return err
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "acpipe: %v\n", err)
	os.Exit(1)
}
