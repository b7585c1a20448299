package stats

import (
	"errors"
	"math"
)

// TestResult is the outcome of a hypothesis test.
type TestResult struct {
	// Stat is the test statistic (z for proportion tests, X^2 for
	// chi-square tests, the LR statistic for ANOVA).
	Stat float64
	// DF is the degrees of freedom where applicable (0 for z-tests).
	DF float64
	// P is the p-value under the null hypothesis.
	P float64
}

// Significant reports whether the null is rejected at significance level
// alpha (e.g. 0.05 or 0.01).
func (r TestResult) Significant(alpha float64) bool {
	return !math.IsNaN(r.P) && r.P < alpha
}

// ErrDegenerate is returned when a test's inputs leave it undefined (for
// example, zero trials in a proportion test).
var ErrDegenerate = errors.New("stats: degenerate test input")

// TwoProportionZTest performs the two-sample test for equality of two
// binomial proportions using the pooled standard error — the "two-sample
// hypothesis test" the paper applies to every conditional-vs-baseline
// probability comparison. The returned p-value is two-sided.
func TwoProportionZTest(a, b Proportion) (TestResult, error) {
	if a.Trials == 0 || b.Trials == 0 {
		return TestResult{Stat: math.NaN(), P: math.NaN()}, ErrDegenerate
	}
	n1, n2 := float64(a.Trials), float64(b.Trials)
	p1, p2 := a.P(), b.P()
	pool := (float64(a.Successes) + float64(b.Successes)) / (n1 + n2)
	se := math.Sqrt(pool * (1 - pool) * (1/n1 + 1/n2))
	if se == 0 {
		// Both samples all-success or all-failure: identical proportions.
		return TestResult{Stat: 0, P: 1}, nil
	}
	z := (p1 - p2) / se
	p := 2 * StdNormal.Sf(math.Abs(z))
	if p > 1 {
		p = 1
	}
	return TestResult{Stat: z, P: p}, nil
}

// ChiSquareGOF performs the chi-square goodness-of-fit test of observed
// counts against expected counts. Expected counts must be positive and are
// typically scaled to sum to the observed total.
func ChiSquareGOF(observed []float64, expected []float64) (TestResult, error) {
	if len(observed) != len(expected) || len(observed) < 2 {
		return TestResult{Stat: math.NaN(), P: math.NaN()}, ErrDegenerate
	}
	stat := 0.0
	for i, o := range observed {
		e := expected[i]
		if e <= 0 {
			return TestResult{Stat: math.NaN(), P: math.NaN()}, ErrDegenerate
		}
		d := o - e
		stat += d * d / e
	}
	df := float64(len(observed) - 1)
	return TestResult{Stat: stat, DF: df, P: ChiSquared{K: df}.Sf(stat)}, nil
}

// ChiSquareEqualRates tests the null hypothesis that k units share a common
// event rate, given per-unit event counts and per-unit exposures (for
// example, failures per node with equal node lifetimes). It is the
// "chi-square test for differences between proportions" of Section IV:
// expected counts are allocated proportionally to exposure.
func ChiSquareEqualRates(counts []float64, exposure []float64) (TestResult, error) {
	if len(counts) != len(exposure) || len(counts) < 2 {
		return TestResult{Stat: math.NaN(), P: math.NaN()}, ErrDegenerate
	}
	totalCount, totalExp := 0.0, 0.0
	for i := range counts {
		if exposure[i] <= 0 {
			return TestResult{Stat: math.NaN(), P: math.NaN()}, ErrDegenerate
		}
		totalCount += counts[i]
		totalExp += exposure[i]
	}
	if totalCount == 0 {
		return TestResult{Stat: 0, DF: float64(len(counts) - 1), P: 1}, nil
	}
	expected := make([]float64, len(counts))
	for i := range counts {
		expected[i] = totalCount * exposure[i] / totalExp
	}
	return ChiSquareGOF(counts, expected)
}

// LikelihoodRatioTest compares two nested models by their maximized
// log-likelihoods: stat = 2*(llFull - llNull), chi-square with dfFull-dfNull
// degrees of freedom. This backs the paper's ANOVA comparison of the
// saturated per-user failure-rate model against the common-rate model
// (Section VI) and the Poisson-model ANOVA in Section X.
func LikelihoodRatioTest(llNull, llFull float64, dfNull, dfFull int) (TestResult, error) {
	if dfFull <= dfNull {
		return TestResult{Stat: math.NaN(), P: math.NaN()}, ErrDegenerate
	}
	stat := 2 * (llFull - llNull)
	if stat < 0 && stat > -1e-8 {
		stat = 0 // numerical noise
	}
	df := float64(dfFull - dfNull)
	return TestResult{Stat: stat, DF: df, P: ChiSquared{K: df}.Sf(stat)}, nil
}
