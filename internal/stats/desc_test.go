package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestDescBasics(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	approx(t, "Sum", Sum(xs), 40, 1e-12)
	approx(t, "Mean", Mean(xs), 5, 1e-12)
	approx(t, "Variance", Variance(xs), 32.0/7, 1e-12)
	approx(t, "StdDev", StdDev(xs), math.Sqrt(32.0/7), 1e-12)
	approx(t, "Min", Min(xs), 2, 0)
	approx(t, "Max", Max(xs), 9, 0)
	approx(t, "Median", Median(xs), 4.5, 1e-12)
}

func TestDescEmptyAndSmall(t *testing.T) {
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Min(nil)) || !math.IsNaN(Max(nil)) {
		t.Error("empty-sample estimators should be NaN")
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Error("variance of one point should be NaN")
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("median of empty should be NaN")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	approx(t, "q0", Quantile(xs, 0), 1, 0)
	approx(t, "q1", Quantile(xs, 1), 5, 0)
	approx(t, "q0.5", Quantile(xs, 0.5), 3, 0)
	approx(t, "q0.25", Quantile(xs, 0.25), 2, 1e-12)
	// Type-7 interpolation: q=0.1 over [1..5] -> 1 + 0.4*(2-1) = 1.4.
	approx(t, "q0.1", Quantile(xs, 0.1), 1.4, 1e-12)
	if !math.IsNaN(Quantile(xs, -0.1)) || !math.IsNaN(Quantile(xs, 1.1)) {
		t.Error("out-of-range q should be NaN")
	}
	// Input must not be reordered.
	ys := []float64{3, 1, 2}
	_ = Quantile(ys, 0.5)
	if ys[0] != 3 || ys[1] != 1 || ys[2] != 2 {
		t.Error("Quantile must not mutate its input")
	}
}

func TestQuantileOrderProperty(t *testing.T) {
	f := func(raw []float64, q1, q2 float64) bool {
		if len(raw) == 0 {
			return true
		}
		a := 0.5 * (1 + math.Abs(math.Mod(q1, 1)))
		b := 0.5 * math.Abs(math.Mod(q2, 1))
		lo, hi := math.Min(a, b), math.Max(a, b)
		for i := range raw {
			if math.IsNaN(raw[i]) || math.IsInf(raw[i], 0) {
				raw[i] = 0
			}
		}
		return Quantile(raw, lo) <= Quantile(raw, hi)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 100}
	s := Summarize(xs)
	if s.N != 5 {
		t.Errorf("N = %d", s.N)
	}
	approx(t, "summary mean", s.Mean, 22, 1e-12)
	approx(t, "summary min", s.Min, 1, 0)
	approx(t, "summary max", s.Max, 100, 0)
	approx(t, "summary median", s.Median, 3, 0)
	if s.Q1 > s.Median || s.Median > s.Q3 {
		t.Error("quartiles out of order")
	}
}

func TestInts(t *testing.T) {
	out := Ints([]int{1, -2, 3})
	if len(out) != 3 || out[0] != 1 || out[1] != -2 || out[2] != 3 {
		t.Errorf("Ints = %v", out)
	}
}

func TestMedianMatchesSortDefinition(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		for i := range raw {
			if math.IsNaN(raw[i]) || math.IsInf(raw[i], 0) {
				raw[i] = 1
			}
			// Keep magnitudes moderate so the reference (a+b)/2 cannot
			// overflow where the interpolating estimator does not.
			raw[i] = math.Mod(raw[i], 1e6)
		}
		sorted := append([]float64(nil), raw...)
		sort.Float64s(sorted)
		var want float64
		n := len(sorted)
		if n%2 == 1 {
			want = sorted[n/2]
		} else {
			want = (sorted[n/2-1] + sorted[n/2]) / 2
		}
		got := Median(raw)
		return math.Abs(got-want) < 1e-9 || (math.IsNaN(got) && math.IsNaN(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
