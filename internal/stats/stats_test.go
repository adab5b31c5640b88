package stats_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"adaptio/internal/stats"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := stats.Mean(xs); !approx(m, 5, 1e-12) {
		t.Fatalf("mean = %v", m)
	}
	// Sample SD with n-1 denominator: sqrt(32/7).
	if sd := stats.StdDev(xs); !approx(sd, math.Sqrt(32.0/7), 1e-12) {
		t.Fatalf("sd = %v", sd)
	}
	m, sd := stats.MeanStdDev(xs)
	if !approx(m, 5, 1e-12) || !approx(sd, math.Sqrt(32.0/7), 1e-12) {
		t.Fatal("MeanStdDev mismatch")
	}
}

func TestEmptyAndSingle(t *testing.T) {
	if stats.Mean(nil) != 0 || stats.StdDev(nil) != 0 {
		t.Fatal("empty slice should give zeros")
	}
	if stats.StdDev([]float64{42}) != 0 {
		t.Fatal("single sample SD should be 0")
	}
	if stats.Min(nil) != 0 || stats.Max(nil) != 0 {
		t.Fatal("empty min/max should be 0")
	}
	if stats.Quantile(nil, 0.5) != 0 {
		t.Fatal("empty quantile should be 0")
	}
	s := stats.Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Fatal("empty summary should be zero")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5}
	if stats.Min(xs) != -1 || stats.Max(xs) != 5 {
		t.Fatalf("min/max = %v/%v", stats.Min(xs), stats.Max(xs))
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4},
	}
	for _, c := range cases {
		if got := stats.Quantile(xs, c.q); !approx(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Input must not be modified.
	xs2 := []float64{5, 1, 3}
	stats.Quantile(xs2, 0.5)
	if xs2[0] != 5 || xs2[1] != 1 || xs2[2] != 3 {
		t.Fatal("Quantile modified its input")
	}
}

func TestSummarize(t *testing.T) {
	xs := []float64{7, 1, 3, 5, 9}
	s := stats.Summarize(xs)
	if s.N != 5 || s.Min != 1 || s.Max != 9 || s.Median != 5 {
		t.Fatalf("summary = %+v", s)
	}
	if s.Q1 != 3 || s.Q3 != 7 {
		t.Fatalf("quartiles = %v/%v", s.Q1, s.Q3)
	}
	if s.IQR() != 4 {
		t.Fatalf("IQR = %v", s.IQR())
	}
	if s.String() == "" {
		t.Fatal("empty String()")
	}
	// Input unmodified.
	if xs[0] != 7 {
		t.Fatal("Summarize modified its input")
	}
}

func TestCoefficientOfVariation(t *testing.T) {
	if stats.CoefficientOfVariation([]float64{5, 5, 5}) != 0 {
		t.Fatal("constant data CoV should be 0")
	}
	if stats.CoefficientOfVariation(nil) != 0 {
		t.Fatal("empty CoV should be 0")
	}
	cov := stats.CoefficientOfVariation([]float64{1, 3})
	if !approx(cov, math.Sqrt2/2, 1e-12) {
		t.Fatalf("CoV = %v", cov)
	}
}

func TestWelchTSummary(t *testing.T) {
	welch := func(a, b []float64) (float64, float64) {
		return stats.WelchTSummary(stats.Mean(a), stats.StdDev(a), len(a), stats.Mean(b), stats.StdDev(b), len(b))
	}
	// Clearly different populations: significant.
	a := []float64{100, 101, 99, 100, 102, 100}
	b := []float64{120, 121, 119, 122, 120, 121}
	tt, df := welch(a, b)
	if tt >= 0 {
		t.Fatalf("t = %v, want negative (a < b)", tt)
	}
	if df <= 0 {
		t.Fatalf("df = %v", df)
	}
	if !stats.SignificantAt05(tt, df) {
		t.Fatal("clear difference not significant")
	}
	// Same population: not significant.
	c := []float64{100, 102, 98, 101, 99, 100}
	tt, df = welch(a, c)
	if stats.SignificantAt05(tt, df) {
		t.Fatalf("identical-population difference flagged significant (t=%v, df=%v)", tt, df)
	}
	// Degenerate inputs.
	if tt, df := welch([]float64{1}, b); tt != 0 || df != 0 {
		t.Fatal("tiny sample should yield zeros")
	}
	if tt, df := welch([]float64{5, 5, 5}, []float64{5, 5, 5}); tt != 0 || df != 0 {
		t.Fatal("zero-variance pair should yield zeros")
	}
	if stats.SignificantAt05(10, 0) {
		t.Fatal("df=0 should never be significant")
	}
	// Large-df path uses the normal approximation.
	if !stats.SignificantAt05(2.5, 1000) || stats.SignificantAt05(1.5, 1000) {
		t.Fatal("normal approximation thresholds wrong")
	}
}

// Property: quantiles are monotone in q and bounded by min/max.
func TestQuantileMonotoneProperty(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rnd := rand.New(rand.NewSource(seed))
		xs := make([]float64, int(n)+1)
		for i := range xs {
			xs[i] = rnd.NormFloat64() * 100
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := stats.Quantile(xs, q)
			if v < prev-1e-9 {
				return false
			}
			if v < stats.Min(xs)-1e-9 || v > stats.Max(xs)+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Summarize is invariant under permutation.
func TestSummarizePermutationInvariant(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rnd := rand.New(rand.NewSource(seed))
		xs := make([]float64, int(n)+2)
		for i := range xs {
			xs[i] = rnd.Float64() * 1000
		}
		a := stats.Summarize(xs)
		shuffled := append([]float64(nil), xs...)
		rnd.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		b := stats.Summarize(shuffled)
		return a == b
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
