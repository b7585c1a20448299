package stats

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestECDFBasics(t *testing.T) {
	e := NewECDF([]float64{3, 1, 2})
	if e.Len() != 3 {
		t.Fatalf("len = %d", e.Len())
	}
	approx(t, "At(0.5)", e.At(0.5), 0, 0)
	approx(t, "At(1)", e.At(1), 1.0/3, 1e-12)
	approx(t, "At(2.5)", e.At(2.5), 2.0/3, 1e-12)
	approx(t, "At(99)", e.At(99), 1, 0)
	approx(t, "Quantile(0.5)", e.Quantile(0.5), 2, 0)
	approx(t, "Quantile(1)", e.Quantile(1), 3, 0)
	if !math.IsNaN(NewECDF(nil).At(1)) {
		t.Error("empty ECDF should be NaN")
	}
	if !math.IsNaN(e.Quantile(-0.1)) {
		t.Error("out-of-range quantile should be NaN")
	}
	// Input is not mutated.
	xs := []float64{3, 1, 2}
	_ = NewECDF(xs)
	if xs[0] != 3 {
		t.Error("NewECDF must copy its input")
	}
}

func TestKSOneSampleExponential(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 500
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.ExpFloat64() / 2 // rate 2
	}
	good := Exponential{Rate: 2}
	r, err := KSOneSample(xs, good.CDF)
	if err != nil {
		t.Fatal(err)
	}
	if r.Significant(0.01) {
		t.Errorf("correct model rejected: D=%.3f p=%.4f", r.Stat, r.P)
	}
	// Grossly wrong rate is rejected.
	bad := Exponential{Rate: 0.2}
	r2, err := KSOneSample(xs, bad.CDF)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Significant(0.01) {
		t.Errorf("wrong model not rejected: D=%.3f p=%.4f", r2.Stat, r2.P)
	}
	if _, err := KSOneSample([]float64{1}, good.CDF); !errors.Is(err, ErrDegenerate) {
		t.Error("single observation should be degenerate")
	}
}

func TestKSPValueBounds(t *testing.T) {
	if p := ksPValue(0, 100); p != 1 {
		t.Errorf("D=0 should give p=1, got %g", p)
	}
	if p := ksPValue(0.9, 1000); p > 1e-10 {
		t.Errorf("huge D should give ~0, got %g", p)
	}
}

func TestCoefficientOfVariation(t *testing.T) {
	// Exponential sample: CV ~ 1.
	rng := rand.New(rand.NewSource(10))
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = rng.ExpFloat64()
	}
	cv := CoefficientOfVariation(xs)
	if math.Abs(cv-1) > 0.08 {
		t.Errorf("exponential CV = %.3f, want ~1", cv)
	}
	if !math.IsNaN(CoefficientOfVariation([]float64{0, 0})) {
		t.Error("zero-mean CV should be NaN")
	}
	// Constant sample: CV 0.
	approx(t, "constant CV", CoefficientOfVariation([]float64{5, 5, 5}), 0, 1e-12)
}
