package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync/atomic"
	"time"

	"adaptio/internal/core"
	"adaptio/internal/corpus"
	"adaptio/internal/obs"
	"adaptio/internal/stream"
	"adaptio/internal/tunnel"
)

// workload is one row of the benchmark: its inputs, and the path it opens.
type workload struct {
	name   string
	why    string
	inputs func(seed uint64, e *env) *inputs
	// open builds the path under test and starts the load on it. The
	// session's firstOp closes once an op has gone through and verified.
	open func(e *env, in *inputs) (*session, error)
}

// scarceWindow is the decision window t of the scarce-* workloads: the
// paper's 2 s scaled so that a run holds 40 windows per wire phase.
const scarceWindow = 100 * time.Millisecond

// workloads lists the benchmark's workloads; the names are fixed, later
// changes cite them.
var workloads = []*workload{
	{
		name: "scarce-text",
		why:  "adaptive Writer over a paced 20/8/20/40 MB/s wire, text: compression pays, the wire blocks, decider quality and ratio set goodput",
		inputs: func(seed uint64, _ *env) *inputs {
			return uniformInputs(corpus.Moderate, seed)
		},
		open: func(e *env, in *inputs) (*session, error) { return openStream(e, in, pacedAdaptive) },
	},
	{
		name: "scarce-jpeg",
		why:  "same paced wire, incompressible data: shows what adapting costs (wasted probes, entropy probe, NO-level path); bypasses the codec kernels",
		inputs: func(seed uint64, _ *env) *inputs {
			return uniformInputs(corpus.Low, seed)
		},
		open: func(e *env, in *inputs) (*session, error) { return openStream(e, in, pacedAdaptive) },
	},
	{
		name:   "fast-relay",
		why:    "one unpaced connection through tunnel entry and exit at static LIGHT, mixed data: CPU-bound, codec+framing+relay all on the blocking path; bypasses the decider",
		inputs: func(seed uint64, _ *env) *inputs { return mixedInputs(seed) },
		open:   openRelay,
	},
	{
		name:   "pipeline-bulk",
		why:    "ParallelWriter at static LIGHT over loopback to a serial Reader, same bytes as fast-relay: the only multi-core measurement of the block pipeline",
		inputs: func(seed uint64, _ *env) *inputs { return mixedInputs(seed) },
		open:   func(e *env, in *inputs) (*session, error) { return openStream(e, in, parallelLight) },
	},
	{
		name: "interactive-echo",
		why:  "closed-loop 128 B-16 KiB text ping-pong through the adaptive tunnel: partial blocks, both directions live, per-frame and flush-deadline cost dominate",
		inputs: func(seed uint64, e *env) *inputs {
			return echoInputs(seed, echoConns(e))
		},
		open: openEcho,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// echoConns is the connection count of interactive-echo.
func echoConns(e *env) int { return min(2, e.workers) }

// connPair returns the two ends of a fresh TCP loopback connection.
func connPair() (client, server *net.TCPConn, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	srv, err := ln.Accept()
	if err != nil {
		c.Close()
		return nil, nil, err
	}
	return c.(*net.TCPConn), srv.(*net.TCPConn), nil
}

// streamKind selects the writer of a direct stream path.
type streamKind int

const (
	// pacedAdaptive is the scarce-* path: the serial Writer, its level
	// chosen by the paper's decider, behind the paced wire.
	pacedAdaptive streamKind = iota
	// parallelLight is pipeline-bulk: ParallelWriter at static LIGHT.
	parallelLight
	// serialLight is the ladder's loopback rung: the serial Writer at
	// static LIGHT.
	serialLight
)

// openStream opens generator -> stream writer -> [paced wire] -> TCP
// loopback -> stream.Reader -> verifier.
func openStream(e *env, in *inputs, kind streamKind) (*session, error) {
	s := newSession(e)
	client, server, err := connPair()
	if err != nil {
		return nil, err
	}
	s.owns(client, server)
	s.genTrack = e.rec.track(0)
	s.writeSpan = "stream.writer.write"
	s.streamScopes = []string{"bench.stream.writer"}

	var wire io.Writer = client
	if e.wrapWire != nil {
		wire = e.wrapWire(wire)
	}
	if kind == pacedAdaptive {
		s.paced = newPacedWriter(wire, scarceSchedule(e.run), s.origin)
		wire = s.paced
	}
	if e.rec != nil {
		// The serial Writer writes the wire inside the generator's Write,
		// the pipeline from its flusher goroutine.
		wireTrack := s.genTrack
		if kind == parallelLight {
			wireTrack = e.rec.track(0)
		}
		wire = spanWriter{wire, wireTrack, "wire.write"}
	}
	cfg := stream.WriterConfig{
		Obs:    s.reg.Scope("bench.stream.writer"),
		Static: true, StaticLevel: stream.LevelLight,
	}
	if kind == pacedAdaptive {
		cfg.Window = scarceWindow
		cfg.StaticLevel = e.static
		if e.static < 0 {
			cfg.Static, cfg.StaticLevel = false, 0
			dec, err := core.NewPolicy(core.PolicyAlgorithmOne, core.PolicyConfig{Levels: len(stream.DefaultLadder())})
			if err != nil {
				s.finish()
				return nil, err
			}
			if e.rec != nil {
				s.observed = &observeShim{Decider: dec, t: s.genTrack}
				dec = s.observed
			}
			cfg.Decider = dec
		}
	}
	var w io.WriteCloser
	if kind == parallelLight {
		w, err = stream.NewParallelWriter(wire, cfg, e.workers)
	} else {
		w, err = stream.NewWriter(wire, cfg)
	}
	if err != nil {
		s.finish()
		return nil, err
	}

	recvTrack := e.rec.track(0)
	var src io.Reader = server
	if e.rec != nil {
		src = spanReader{src, recvTrack, "wire.read"}
	}
	r, err := stream.NewReader(src)
	if err != nil {
		s.finish()
		return nil, err
	}
	s.closer = append(s.closer, func() { r.Close() })
	var source io.Reader = r
	if e.rec != nil {
		source = spanReader{r, recvTrack, "stream.reader.read"}
	}
	s.startBulk(bulkPath{
		sink: w,
		closeSink: func() error {
			if err := w.Close(); err != nil {
				return err
			}
			return client.CloseWrite()
		},
		source: source,
	}, in)
	return s, nil
}

// observeShim times every Decider.Observe and keeps the policy's counters
// as they stood after it.
type observeShim struct {
	core.Decider
	t   *track
	log []observed
}

type observed struct {
	at    time.Time
	stats core.PolicyStats
}

func (d *observeShim) Observe(rate float64) int {
	i := d.t.begin("core.observe")
	level := d.Decider.Observe(rate)
	d.t.end(i)
	d.log = append(d.log, observed{time.Now(), d.Decider.PolicyStats()})
	return level
}

// tunnelPair starts an exit endpoint in front of target and an entry
// endpoint in front of the exit, both with cfg, and returns the entry's
// address. Every relay error, and every wire write when traced, lands in
// the session.
func (s *session) tunnelPair(target string, cfg tunnel.Config) (string, error) {
	cfg.ShutdownGrace = 2 * time.Second
	cfg.Logf = func(format string, args ...any) { s.fail(fmt.Errorf(format, args...)) }
	cfg.OnDone = func(cs tunnel.ConnStats) {
		if cs.Err != nil {
			s.fail(fmt.Errorf("tunnel %s: %w", cs.Direction, cs.Err))
		}
	}
	var addr string
	for _, side := range []string{"exit", "entry"} {
		c := cfg
		c.Obs = s.reg.Scope(side)
		if rec := s.e.rec; rec != nil {
			side := side
			var conns atomic.Int64
			c.WrapWire = func(conn net.Conn) net.Conn {
				id := int(conns.Add(1)) - 1
				return &spanConn{
					Conn:   conn,
					rdName: "tunnel." + side + ".wire.read", wrName: "tunnel." + side + ".wire.write",
					rd: rec.track(id), wr: rec.track(id), writes: &s.wireWrites,
				}
			}
		}
		listen := tunnel.ListenEntry
		if side == "exit" {
			listen = tunnel.ListenExit
		}
		ep, err := listen(context.Background(), "127.0.0.1:0", target, c)
		if err != nil {
			return "", err
		}
		s.closer = append(s.closer, func() { ep.Close() })
		s.streamScopes = append(s.streamScopes, side+".stream.writer")
		s.tunnelScopes = append(s.tunnelScopes, side)
		target, addr = ep.Addr().String(), ep.Addr().String()
	}
	return addr, nil
}

// openRelay opens generator -> tunnel entry -> tunnel exit -> sink server,
// one connection, one direction, level pinned at LIGHT.
func openRelay(e *env, in *inputs) (*session, error) {
	s := newSession(e)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.closer = append(s.closer, func() { ln.Close() })
	entry, err := s.tunnelPair(ln.Addr().String(), tunnel.Config{Static: true, StaticLevel: stream.LevelLight})
	if err != nil {
		s.finish()
		return nil, err
	}
	client, err := net.Dial("tcp", entry)
	if err != nil {
		s.finish()
		return nil, err
	}
	// The sink's connection arrives once entry and exit have each dialled on.
	ln.(*net.TCPListener).SetDeadline(time.Now().Add(10 * time.Second))
	sink, err := ln.Accept()
	if err != nil {
		client.Close()
		s.finish()
		return nil, fmt.Errorf("sink server: %w", err)
	}
	s.owns(client, sink)
	s.genTrack = e.rec.track(0)
	s.writeSpan = "gen.write"
	s.startBulk(bulkPath{
		sink:      client,
		closeSink: client.(*net.TCPConn).CloseWrite,
		source:    sink,
	}, in)
	return s, nil
}

// openEcho opens the interactive workload: connections through entry and
// exit to an echo server, each a closed-loop ping-pong of the seeded
// message plan, the tunnel at its adaptive defaults. Connections are made
// one after the other, each proven with a first message, so connection k is
// stream k at the generator, both endpoints and the server.
func openEcho(e *env, in *inputs) (*session, error) {
	s := newSession(e)
	s.echo = len(in.plans)
	s.writeSpan = "gen.write"
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.closer = append(s.closer, func() { ln.Close() })
	s.bg.Add(1)
	go s.serveEcho(ln)
	entry, err := s.tunnelPair(ln.Addr().String(), tunnel.Config{})
	if err != nil {
		s.finish()
		return nil, err
	}
	for k, plan := range in.plans {
		conn, err := net.Dial("tcp", entry)
		if err != nil {
			s.finish()
			return nil, err
		}
		s.owns(conn)
		c := &echoClient{s: s, conn: conn, plan: plan, t: e.rec.track(k), buf: make([]byte, echoMaxMsg)}
		if k == 0 {
			s.genTrack = c.t
		}
		if err := c.pingPong(); err != nil {
			s.finish()
			return nil, fmt.Errorf("connection %d: first message: %w", k, err)
		}
		s.wg.Add(1)
		go c.loop()
	}
	s.markFirst()
	return s, nil
}

// serveEcho accepts until the listener closes and echoes every connection's
// bytes back as they arrive.
func (s *session) serveEcho(ln net.Listener) {
	defer s.bg.Done()
	for k := 0; ; k++ {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.bg.Add(1)
		go func(t *track) {
			defer s.bg.Done()
			defer conn.Close()
			buf := make([]byte, echoMaxMsg)
			for {
				n, err := conn.Read(buf)
				if n > 0 {
					sp := t.begin("echo.write")
					_, werr := conn.Write(buf[:n])
					t.end(sp)
					if werr != nil {
						s.fail(fmt.Errorf("echo server: %w", werr))
						return
					}
				}
				if err != nil {
					if !errors.Is(err, io.EOF) {
						s.fail(fmt.Errorf("echo server: %w", err))
					}
					return
				}
			}
		}(s.e.rec.track(k))
	}
}

// echoClient is one closed-loop connection of interactive-echo.
type echoClient struct {
	s    *session
	conn net.Conn
	plan [][]byte
	next int
	t    *track
	buf  []byte
	ops  []opRec
}

// pingPong sends the next message and waits for all of its echo.
func (c *echoClient) pingPong() error {
	msg := c.plan[c.next%len(c.plan)]
	c.next++
	start := time.Now()
	sp := c.t.begin("gen.write")
	_, err := c.conn.Write(msg)
	c.t.end(sp)
	if err != nil {
		return err
	}
	echo := c.buf[:len(msg)]
	if _, err := io.ReadFull(c.conn, echo); err != nil {
		return err
	}
	now := time.Now()
	c.ops = append(c.ops, opRec{done: now, latency: now.Sub(start), bytes: len(msg), ok: bytes.Equal(echo, msg)})
	return nil
}

func (c *echoClient) loop() {
	defer c.s.wg.Done()
	defer func() { c.s.addOps(c.ops, c.next) }()
	for !c.s.stop.Load() {
		if err := c.pingPong(); err != nil {
			c.s.fail(fmt.Errorf("echo client: message %d: %w", c.next-1, err))
			return
		}
	}
}

// streamCounters are the stream writers' own counters, summed over the
// writers in a path. They are atomics inside the program, so the benchmark
// reads them live at the edges of the timed run.
type streamCounters struct {
	app, wire, blocks, switches int64
	rawFallbacks, probeSkips    int64
	copied                      int64
	levelApp                    [4]int64
}

func counter(reg *obs.Registry, name string) int64 {
	if c, ok := reg.Get(name).(*obs.Counter); ok {
		return c.Value()
	}
	return 0
}

func readStreams(reg *obs.Registry, scopes []string) streamCounters {
	var c streamCounters
	for _, sc := range scopes {
		c.app += counter(reg, sc+".app_bytes")
		c.wire += counter(reg, sc+".wire_bytes")
		c.blocks += counter(reg, sc+".blocks")
		c.switches += counter(reg, sc+".level_switches")
		c.rawFallbacks += counter(reg, sc+".raw_fallbacks")
		c.probeSkips += counter(reg, sc+".probe_skips")
		c.copied += counter(reg, sc+".copied_bytes")
		for lvl := range c.levelApp {
			c.levelApp[lvl] += counter(reg, sc+".app_bytes{level="+strconv.Itoa(lvl)+"}")
		}
	}
	return c
}

func (c streamCounters) sub(o streamCounters) streamCounters {
	d := streamCounters{
		app: c.app - o.app, wire: c.wire - o.wire, blocks: c.blocks - o.blocks,
		switches: c.switches - o.switches, rawFallbacks: c.rawFallbacks - o.rawFallbacks,
		probeSkips: c.probeSkips - o.probeSkips, copied: c.copied - o.copied,
	}
	for i := range d.levelApp {
		d.levelApp[i] = c.levelApp[i] - o.levelApp[i]
	}
	return d
}
