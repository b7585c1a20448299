package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.IsNaN(got) != math.IsNaN(want) {
		t.Errorf("%s = %v, want %v", name, got, want)
		return
	}
	if math.IsNaN(want) {
		return
	}
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %.12g, want %.12g (tol %g)", name, got, want, tol)
	}
}

func TestGammaPIdentities(t *testing.T) {
	// P(1, x) = 1 - exp(-x).
	for _, x := range []float64{0.1, 0.5, 1, 2, 5, 10, 25} {
		approx(t, "GammaP(1,x)", GammaP(1, x), 1-math.Exp(-x), 1e-12)
	}
	// P(1/2, x) = erf(sqrt(x)).
	for _, x := range []float64{0.01, 0.25, 1, 4, 9} {
		approx(t, "GammaP(0.5,x)", GammaP(0.5, x), math.Erf(math.Sqrt(x)), 1e-12)
	}
	// P(2, x) = 1 - (1+x) exp(-x).
	for _, x := range []float64{0.3, 1.7, 6} {
		approx(t, "GammaP(2,x)", GammaP(2, x), 1-(1+x)*math.Exp(-x), 1e-12)
	}
}

func TestGammaPQComplement(t *testing.T) {
	for _, a := range []float64{0.3, 1, 2.5, 7, 40} {
		for _, x := range []float64{0.1, 1, 3, 10, 60} {
			p, q := GammaP(a, x), GammaQ(a, x)
			approx(t, "P+Q", p+q, 1, 1e-10)
			if p < 0 || p > 1 {
				t.Errorf("GammaP(%g,%g) = %g out of [0,1]", a, x, p)
			}
		}
	}
}

func TestGammaPEdgeCases(t *testing.T) {
	if !math.IsNaN(GammaP(-1, 2)) {
		t.Error("GammaP with non-positive a should be NaN")
	}
	if GammaP(3, 0) != 0 {
		t.Error("GammaP(a, 0) should be 0")
	}
	if GammaQ(3, 0) != 1 {
		t.Error("GammaQ(a, 0) should be 1")
	}
	if v := GammaP(2, 1e6); math.Abs(v-1) > 1e-12 {
		t.Errorf("GammaP(2, huge) = %g, want 1", v)
	}
}

func TestGammaPMonotoneProperty(t *testing.T) {
	// P(a, x) is non-decreasing in x for fixed a.
	f := func(a, x1, x2 float64) bool {
		a = 0.1 + math.Abs(math.Mod(a, 20))
		x1 = math.Abs(math.Mod(x1, 50))
		x2 = math.Abs(math.Mod(x2, 50))
		lo, hi := math.Min(x1, x2), math.Max(x1, x2)
		return GammaP(a, lo) <= GammaP(a, hi)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBetaIncKnownValues(t *testing.T) {
	// I_x(1,1) = x.
	for _, x := range []float64{0.1, 0.4, 0.9} {
		approx(t, "BetaInc(1,1,x)", BetaInc(1, 1, x), x, 1e-12)
	}
	// Symmetry point: I_0.5(a,a) = 0.5.
	for _, a := range []float64{0.5, 1, 3, 10} {
		approx(t, "BetaInc(a,a,0.5)", BetaInc(a, a, 0.5), 0.5, 1e-10)
	}
	// I_x(2,3) = x^2 (6 - 8x + 3x^2).
	x := 0.4
	approx(t, "BetaInc(2,3,0.4)", BetaInc(2, 3, x), x*x*(6-8*x+3*x*x), 1e-10)
	// Reflection: I_x(a,b) = 1 - I_{1-x}(b,a).
	approx(t, "reflection", BetaInc(2.5, 4, 0.3), 1-BetaInc(4, 2.5, 0.7), 1e-10)
}

func TestBetaIncEdgeCases(t *testing.T) {
	if BetaInc(2, 3, 0) != 0 || BetaInc(2, 3, 1) != 1 {
		t.Error("BetaInc must be 0 at x=0 and 1 at x=1")
	}
	if !math.IsNaN(BetaInc(-1, 2, 0.5)) || !math.IsNaN(BetaInc(2, 0, 0.5)) {
		t.Error("BetaInc with non-positive parameters should be NaN")
	}
}

func TestLogFactorial(t *testing.T) {
	approx(t, "LogFactorial(5)", LogFactorial(5), math.Log(120), 1e-12)
	approx(t, "LogFactorial(0)", LogFactorial(0), 0, 1e-12)
	if !math.IsNaN(LogFactorial(-1)) {
		t.Error("LogFactorial(-1) should be NaN")
	}
}
