package metrics_test

import (
	"errors"
	"math"
	"testing"

	"adaptio/internal/cloudsim"
	"adaptio/internal/metrics"
)

const sampleProcStat = `cpu  10132153 290696 3084719 46828483 16683 0 25195 175 0 0
cpu0 1393280 32966 572056 13343292 6130 0 17875 100 0 0
intr 1462898
ctxt 115315133
btime 1305504000
processes 33245
procs_running 1
procs_blocked 0
`

func TestParseProcStat(t *testing.T) {
	c, err := metrics.ParseProcStat(sampleProcStat)
	if err != nil {
		t.Fatal(err)
	}
	if c.User != 10132153 || c.Nice != 290696 || c.System != 3084719 {
		t.Fatalf("user/nice/system wrong: %+v", c)
	}
	if c.Idle != 46828483 || c.IOWait != 16683 || c.IRQ != 0 || c.SoftIRQ != 25195 || c.Steal != 175 {
		t.Fatalf("idle/iowait/irq/softirq/steal wrong: %+v", c)
	}
	if c.Busy() != 10132153+290696+3084719+0+25195+175 {
		t.Fatalf("Busy() = %d", c.Busy())
	}
}

func TestParseProcStatOldKernel(t *testing.T) {
	// Kernels before 2.6.11 report only 4-7 fields after "cpu".
	c, err := metrics.ParseProcStat("cpu  100 0 50 1000 5 2 3 9\n")
	if err != nil {
		t.Fatal(err)
	}
	if c.Steal != 9 {
		t.Fatalf("steal = %d", c.Steal)
	}
}

// A cpu line without the steal column (seven counters) reads Steal = 0.
func TestParseProcStatSevenCounters(t *testing.T) {
	c, err := metrics.ParseProcStat("cpu  100 0 50 1000 5 2 3\n")
	if err != nil {
		t.Fatal(err)
	}
	want := metrics.CPUCounters{User: 100, System: 50, Idle: 1000, IOWait: 5, IRQ: 2, SoftIRQ: 3}
	if c != want {
		t.Fatalf("got %+v, want %+v", c, want)
	}
}

// FuzzParseProcStat feeds the parser arbitrary text: it may reject it, but
// it must not panic. The seeds are cpu lines of 7, 8 and 10 counters.
func FuzzParseProcStat(f *testing.F) {
	f.Add("cpu  100 0 50 1000 5 2 3\n")
	f.Add("cpu  100 0 50 1000 5 2 3 9\n")
	f.Add(sampleProcStat)
	f.Fuzz(func(t *testing.T, text string) {
		c, err := metrics.ParseProcStat(text)
		if err != nil && c.Total() != 0 {
			t.Fatalf("error %v with counters %+v", err, c)
		}
	})
}

func TestParseProcStatErrors(t *testing.T) {
	if _, err := metrics.ParseProcStat("intr 12345\n"); !errors.Is(err, metrics.ErrNoCPULine) {
		t.Fatalf("missing cpu line: got %v", err)
	}
	if _, err := metrics.ParseProcStat("cpu  a b c d e f g h\n"); err == nil {
		t.Fatal("garbage counters accepted")
	}
}

func TestSamplerDeltas(t *testing.T) {
	snapshots := []string{
		"cpu  100 0 100 800 0 0 0 0\n",
		"cpu  130 0 150 820 0 0 0 0\n", // +30 usr, +50 sys, +20 idle => 100 jiffies
	}
	i := 0
	src := metrics.FuncSource(func() (string, error) {
		s := snapshots[i]
		if i < len(snapshots)-1 {
			i++
		}
		return s, nil
	})
	s := metrics.NewSampler(src)
	if _, ok, err := s.Sample(); err != nil || ok {
		t.Fatalf("first sample should prime only: ok=%v err=%v", ok, err)
	}
	u, ok, err := s.Sample()
	if err != nil || !ok {
		t.Fatalf("second sample failed: %v", err)
	}
	if math.Abs(u.USR-30) > 1e-9 || math.Abs(u.SYS-50) > 1e-9 || math.Abs(u.Idle-20) > 1e-9 {
		t.Fatalf("utilization = %+v", u)
	}
	if math.Abs(u.Busy()-80) > 1e-9 {
		t.Fatalf("busy = %v", u.Busy())
	}
}

func TestSamplerCounterWrap(t *testing.T) {
	snapshots := []string{
		"cpu  1000 0 100 800 0 0 0 0\n",
		"cpu  900 0 150 900 0 0 0 0\n", // user went backwards (wrap/migration)
	}
	i := 0
	src := metrics.FuncSource(func() (string, error) {
		s := snapshots[i]
		if i < len(snapshots)-1 {
			i++
		}
		return s, nil
	})
	s := metrics.NewSampler(src)
	s.Sample()
	u, ok, err := s.Sample()
	if err != nil {
		t.Fatal(err)
	}
	if ok && u.USR < 0 {
		t.Fatalf("negative utilization after wrap: %+v", u)
	}
}

func TestSamplerZeroDelta(t *testing.T) {
	src := metrics.FuncSource(func() (string, error) {
		return "cpu  100 0 100 800 0 0 0 0\n", nil
	})
	s := metrics.NewSampler(src)
	s.Sample()
	if _, ok, err := s.Sample(); ok || err != nil {
		t.Fatalf("zero-delta interval should return ok=false: ok=%v err=%v", ok, err)
	}
}

func TestSamplerSourceError(t *testing.T) {
	src := metrics.FuncSource(func() (string, error) { return "", errors.New("boom") })
	s := metrics.NewSampler(src)
	if _, _, err := s.Sample(); err == nil {
		t.Fatal("source error swallowed")
	}
}

// TestSamplerAgainstSimulatedCounters is the integration test tying the
// measurement methodology to the simulator: sampling cloudsim's synthetic
// /proc/stat at 1 s intervals must recover the configured breakdown, the
// exact procedure behind Figure 1.
func TestSamplerAgainstSimulatedCounters(t *testing.T) {
	want := cloudsim.CPUBreakdown{USR: 5, SYS: 25, HIRQ: 2, SIRQ: 12, STEAL: 8}
	counters := cloudsim.NewStatCounters(want, 99)
	src := metrics.FuncSource(func() (string, error) {
		counters.Advance(1.0)
		return counters.ProcStat(), nil
	})
	s := metrics.NewSampler(src)
	var agg metrics.Utilization
	n := 0
	for i := 0; i < 130; i++ { // ">= 120 individual samples" per the paper
		u, ok, err := s.Sample()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			continue
		}
		agg.USR += u.USR
		agg.SYS += u.SYS
		agg.HIRQ += u.HIRQ
		agg.SIRQ += u.SIRQ
		agg.STEAL += u.STEAL
		n++
	}
	if n < 120 {
		t.Fatalf("only %d valid samples", n)
	}
	f := 1 / float64(n)
	check := func(name string, got, want float64) {
		if math.Abs(got-want) > want*0.15+0.5 {
			t.Errorf("%s: sampled %.1f%%, configured %.1f%%", name, got, want)
		}
	}
	check("USR", agg.USR*f, want.USR)
	check("SYS", agg.SYS*f, want.SYS)
	check("HIRQ", agg.HIRQ*f, want.HIRQ)
	check("SIRQ", agg.SIRQ*f, want.SIRQ)
	check("STEAL", agg.STEAL*f, want.STEAL)
}

func TestFileSourceReadsRealProcStat(t *testing.T) {
	// On Linux, parse the real /proc/stat end to end — the acprobe path.
	src := metrics.FileSource("/proc/stat")
	text, err := src.ReadStat()
	if err != nil {
		t.Skipf("no /proc/stat on this system: %v", err)
	}
	if _, err := metrics.ParseProcStat(text); err != nil {
		t.Fatalf("real /proc/stat unparseable: %v", err)
	}
}
