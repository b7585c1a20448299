package stats

import (
	"math"
	"sort"
)

// ECDF is an empirical cumulative distribution function over a sample.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from xs (copied and sorted).
func NewECDF(xs []float64) ECDF {
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return ECDF{sorted: s}
}

// Len returns the sample size.
func (e ECDF) Len() int { return len(e.sorted) }

// At returns the fraction of the sample <= x.
func (e ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	i := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(e.sorted))
}

// Quantile returns the q-th empirical quantile (inverse CDF).
func (e ECDF) Quantile(q float64) float64 {
	n := len(e.sorted)
	if n == 0 || q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return e.sorted[i]
}

// KSOneSample performs the one-sample Kolmogorov-Smirnov test of the
// sample against a continuous reference CDF. It returns the D statistic
// and the asymptotic p-value (Kolmogorov distribution), adequate for the
// sample sizes the failure analyses produce.
func KSOneSample(xs []float64, cdf func(float64) float64) (TestResult, error) {
	n := len(xs)
	if n < 2 {
		return TestResult{Stat: math.NaN(), P: math.NaN()}, ErrDegenerate
	}
	e := NewECDF(xs)
	d := 0.0
	for i, x := range e.sorted {
		f := cdf(x)
		lo := f - float64(i)/float64(n)
		hi := float64(i+1)/float64(n) - f
		if lo > d {
			d = lo
		}
		if hi > d {
			d = hi
		}
	}
	p := ksPValue(d, float64(n))
	return TestResult{Stat: d, P: p}, nil
}

// ksPValue evaluates the asymptotic Kolmogorov tail probability
// Q(lambda) = 2 sum_{k>=1} (-1)^{k-1} exp(-2 k^2 lambda^2) with the
// standard small-sample correction lambda = (sqrt(n) + 0.12 + 0.11/sqrt(n)) D.
func ksPValue(d, n float64) float64 {
	if d <= 0 {
		return 1
	}
	sqn := math.Sqrt(n)
	lambda := (sqn + 0.12 + 0.11/sqn) * d
	sum := 0.0
	sign := 1.0
	for k := 1; k <= 100; k++ {
		term := sign * math.Exp(-2*float64(k)*float64(k)*lambda*lambda)
		sum += term
		if math.Abs(term) < 1e-12 {
			break
		}
		sign = -sign
	}
	p := 2 * sum
	switch {
	case p < 0:
		return 0
	case p > 1:
		return 1
	default:
		return p
	}
}

// CoefficientOfVariation returns stddev/mean, the clustering indicator used
// for inter-arrival analyses: 1 for exponential arrivals, above 1 for
// bursty (over-dispersed) processes.
func CoefficientOfVariation(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 || math.IsNaN(m) {
		return math.NaN()
	}
	return StdDev(xs) / m
}
