// Package stats is a from-scratch statistics substrate for the failure-log
// analyses: descriptive statistics, special functions, probability
// distributions, confidence intervals for proportions, hypothesis tests
// (two-sample proportion z-test, chi-square tests), and correlation
// coefficients. The DSN'13 study leans on exactly these tools (95% CIs,
// two-sample hypothesis tests, chi-square tests for differences between
// proportions, Pearson correlation, Poisson/negative-binomial regression,
// ANOVA); Go's standard library provides none of them, so this package is
// one of the substrates the reproduction builds.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by estimators that need at least one observation.
var ErrEmpty = errors.New("stats: empty sample")

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of xs, or NaN for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return Sum(xs) / float64(len(xs))
}

// Variance returns the unbiased sample variance (n-1 denominator), or NaN
// for samples smaller than two.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// Min returns the smallest element, or NaN for an empty sample.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element, or NaN for an empty sample.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Median returns the sample median, or NaN for an empty sample.
func Median(xs []float64) float64 {
	return Quantile(xs, 0.5)
}

// Quantile returns the q-th sample quantile (0 <= q <= 1) using linear
// interpolation between order statistics (type-7, the R default). It
// returns NaN for an empty sample or out-of-range q.
func Quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 || q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN()
	}
	sorted := make([]float64, n)
	copy(sorted, xs)
	sort.Float64s(sorted)
	h := q * float64(n-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= n {
		return sorted[n-1]
	}
	frac := h - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Summary bundles the five-number summary plus mean and deviation of a
// sample.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Q1     float64
	Median float64
	Q3     float64
	Max    float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		StdDev: StdDev(xs),
		Min:    Min(xs),
		Q1:     Quantile(xs, 0.25),
		Median: Median(xs),
		Q3:     Quantile(xs, 0.75),
		Max:    Max(xs),
	}
}

// Ints converts an integer sample to float64 for use with the estimators.
func Ints(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}
