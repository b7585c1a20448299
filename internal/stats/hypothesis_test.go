package stats

import (
	"errors"
	"math"
	"testing"
)

func TestTwoProportionZTestReference(t *testing.T) {
	// 50/100 vs 30/100: pooled p=0.4, z = 0.2/sqrt(0.48*0.02) = 2.8868,
	// two-sided p = 0.003892.
	r, err := TwoProportionZTest(
		Proportion{Successes: 50, Trials: 100},
		Proportion{Successes: 30, Trials: 100},
	)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "z", r.Stat, 2.886751345948129, 1e-9)
	approx(t, "p", r.P, 0.0038924175, 1e-7)
	if !r.Significant(0.01) {
		t.Error("difference should be significant at 1%")
	}
	if r.Significant(0.001) {
		t.Error("difference should not be significant at 0.1%")
	}
}

func TestTwoProportionZTestSymmetry(t *testing.T) {
	a := Proportion{Successes: 12, Trials: 80}
	b := Proportion{Successes: 30, Trials: 90}
	r1, _ := TwoProportionZTest(a, b)
	r2, _ := TwoProportionZTest(b, a)
	approx(t, "antisymmetric z", r1.Stat, -r2.Stat, 1e-12)
	approx(t, "same p", r1.P, r2.P, 1e-12)
}

func TestTwoProportionZTestDegenerate(t *testing.T) {
	if _, err := TwoProportionZTest(Proportion{}, Proportion{Successes: 1, Trials: 2}); !errors.Is(err, ErrDegenerate) {
		t.Error("empty sample should be degenerate")
	}
	// Both all-success: identical, p = 1.
	r, err := TwoProportionZTest(
		Proportion{Successes: 5, Trials: 5},
		Proportion{Successes: 9, Trials: 9},
	)
	if err != nil {
		t.Fatal(err)
	}
	if r.P != 1 || r.Stat != 0 {
		t.Errorf("all-success test: z=%g p=%g, want 0 and 1", r.Stat, r.P)
	}
}

func TestChiSquareGOFReference(t *testing.T) {
	// obs [10,20,30] vs exp [20,20,20]: X² = 10, df 2, p = exp(-5).
	r, err := ChiSquareGOF([]float64{10, 20, 30}, []float64{20, 20, 20})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "X2", r.Stat, 10, 1e-12)
	approx(t, "df", r.DF, 2, 0)
	approx(t, "p", r.P, math.Exp(-5), 1e-10)
}

func TestChiSquareGOFErrors(t *testing.T) {
	if _, err := ChiSquareGOF([]float64{1}, []float64{1}); !errors.Is(err, ErrDegenerate) {
		t.Error("single cell should be degenerate")
	}
	if _, err := ChiSquareGOF([]float64{1, 2}, []float64{1}); !errors.Is(err, ErrDegenerate) {
		t.Error("length mismatch should be degenerate")
	}
	if _, err := ChiSquareGOF([]float64{1, 2}, []float64{0, 3}); !errors.Is(err, ErrDegenerate) {
		t.Error("zero expected count should be degenerate")
	}
}

func TestChiSquareEqualRates(t *testing.T) {
	// Clearly unequal rates with equal exposure.
	counts := []float64{100, 5, 5, 5, 5}
	exposure := []float64{1, 1, 1, 1, 1}
	r, err := ChiSquareEqualRates(counts, exposure)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Significant(0.01) {
		t.Errorf("should reject equal rates, p=%g", r.P)
	}
	// Exactly proportional to exposure: statistic 0.
	r2, err := ChiSquareEqualRates([]float64{10, 20, 30}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "proportional X2", r2.Stat, 0, 1e-12)
	approx(t, "proportional p", r2.P, 1, 1e-12)
	// All-zero counts: p = 1.
	r3, err := ChiSquareEqualRates([]float64{0, 0}, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if r3.P != 1 {
		t.Errorf("all-zero counts p = %g", r3.P)
	}
	if _, err := ChiSquareEqualRates([]float64{1, 2}, []float64{1, 0}); !errors.Is(err, ErrDegenerate) {
		t.Error("zero exposure should be degenerate")
	}
}

func TestLikelihoodRatioTest(t *testing.T) {
	r, err := LikelihoodRatioTest(-110, -100, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "LR stat", r.Stat, 20, 1e-12)
	approx(t, "LR df", r.DF, 2, 0)
	approx(t, "LR p", r.P, ChiSquared{K: 2}.Sf(20), 1e-12)
	// Tiny negative from numerical noise is clamped to 0.
	r2, err := LikelihoodRatioTest(-100, -100-1e-12, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Stat != 0 {
		t.Errorf("noise LR stat = %g, want 0", r2.Stat)
	}
	if _, err := LikelihoodRatioTest(-100, -90, 3, 3); !errors.Is(err, ErrDegenerate) {
		t.Error("non-nested df should be degenerate")
	}
}

func TestSignificantNaN(t *testing.T) {
	r := TestResult{P: math.NaN()}
	if r.Significant(0.05) {
		t.Error("NaN p-value must never be significant")
	}
}
