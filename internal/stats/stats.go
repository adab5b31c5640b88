// Package stats provides the small set of descriptive statistics used by the
// experiment harness: mean/standard deviation, quantiles and five-number
// boxplot summaries.
//
// The package intentionally avoids any approximation: all summaries are exact
// over the provided samples, because the experiments compare distributions
// whose differences (e.g. cache-induced throughput spikes) live in the tails.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs. It returns 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the sample standard deviation (n-1 denominator) of xs.
// It returns 0 for fewer than two samples.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// MeanStdDev returns both the mean and the sample standard deviation in one
// pass over the data.
func MeanStdDev(xs []float64) (mean, sd float64) {
	return Mean(xs), StdDev(xs)
}

// Min returns the smallest value in xs, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest value in xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between closest ranks (type 7, the R default). The input
// slice is not modified. It returns 0 for an empty slice.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if q <= 0 {
		return Min(xs)
	}
	if q >= 1 {
		return Max(xs)
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Summary is a five-number summary plus mean, standard deviation and sample
// count. It corresponds to the information displayed by the box plots in
// Figures 2 and 3 of the paper.
type Summary struct {
	N      int
	Mean   float64
	SD     float64
	Min    float64
	Q1     float64
	Median float64
	Q3     float64
	Max    float64
}

// Summarize computes a Summary over xs. The input slice is not modified.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	s.Mean = Mean(sorted)
	s.SD = StdDev(sorted)
	s.Min = sorted[0]
	s.Max = sorted[len(sorted)-1]
	s.Q1 = quantileSorted(sorted, 0.25)
	s.Median = quantileSorted(sorted, 0.5)
	s.Q3 = quantileSorted(sorted, 0.75)
	return s
}

// IQR returns the inter-quartile range of the summary.
func (s Summary) IQR() float64 { return s.Q3 - s.Q1 }

// String renders the summary in a compact single-line form.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.1f sd=%.1f min=%.1f q1=%.1f med=%.1f q3=%.1f max=%.1f",
		s.N, s.Mean, s.SD, s.Min, s.Q1, s.Median, s.Q3, s.Max)
}

// CoefficientOfVariation returns sd/mean, a scale-free dispersion measure
// used to compare throughput fluctuation across platforms. It returns 0 when
// the mean is 0.
func CoefficientOfVariation(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return StdDev(xs) / m
}

// WelchTSummary computes Welch's unequal-variance t-test from summary
// statistics (means, sample standard deviations and sizes) — the form needed
// when only aggregated results are retained, as in Table II cells: the t
// statistic and the Welch–Satterthwaite degrees of freedom. Use
// SignificantAt05 to interpret the result. It returns (0, 0) when either
// sample has fewer than two values or both variances are zero.
func WelchTSummary(meanA, sdA float64, nA int, meanB, sdB float64, nB int) (t, df float64) {
	if nA < 2 || nB < 2 {
		return 0, 0
	}
	sa := sdA * sdA / float64(nA)
	sb := sdB * sdB / float64(nB)
	if sa+sb == 0 {
		return 0, 0
	}
	t = (meanA - meanB) / math.Sqrt(sa+sb)
	df = (sa + sb) * (sa + sb) / (sa*sa/float64(nA-1) + sb*sb/float64(nB-1))
	return t, df
}

// tCrit05 holds two-sided 5% critical values of the t distribution for
// small degrees of freedom; beyond the table the normal approximation is
// adequate.
var tCrit05 = []float64{
	0, 12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
	2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093,
	2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045,
	2.042,
}

// SignificantAt05 reports whether a Welch t statistic with df degrees of
// freedom rejects equality of means at the two-sided 5% level.
func SignificantAt05(t, df float64) bool {
	if df <= 0 {
		return false
	}
	idx := int(df)
	if idx >= len(tCrit05) {
		return math.Abs(t) > 1.96
	}
	if idx < 1 {
		idx = 1
	}
	return math.Abs(t) > tCrit05[idx]
}
