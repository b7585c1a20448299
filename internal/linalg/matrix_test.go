package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %.12g, want %.12g", name, got, want)
	}
}

// fromRows builds a matrix from equal-length row slices.
func fromRows(rows [][]float64) *Matrix {
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		for j, v := range r {
			m.Set(i, j, v)
		}
	}
	return m
}

func TestBasicsAndShape(t *testing.T) {
	m := New(2, 3)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("shape %dx%d", m.Rows(), m.Cols())
	}
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Error("Set/At roundtrip failed")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) == 9 {
		t.Error("Clone must not share storage")
	}
	row := m.Row(1)
	row[0] = 42
	if m.At(1, 0) == 42 {
		t.Error("Row must return a copy")
	}
}

func TestMulAndTranspose(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	b := fromRows([][]float64{{5, 6}, {7, 8}})
	p, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			approx(t, "mul", p.At(i, j), want[i][j], 1e-12)
		}
	}
	tr := a.T()
	if tr.At(0, 1) != 3 || tr.At(1, 0) != 2 {
		t.Error("transpose wrong")
	}
	if _, err := a.Mul(New(3, 3)); !errors.Is(err, ErrShape) {
		t.Error("shape mismatch should fail")
	}
}

func TestMulVec(t *testing.T) {
	a := fromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	v, err := a.MulVec([]float64{1, 0, -1})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "mulvec0", v[0], -2, 1e-12)
	approx(t, "mulvec1", v[1], -2, 1e-12)
	if _, err := a.MulVec([]float64{1}); !errors.Is(err, ErrShape) {
		t.Error("bad vector length should fail")
	}
}

func TestIdentity(t *testing.T) {
	i3 := New(3, 3)
	for i := 0; i < 3; i++ {
		i3.Set(i, i, 1)
	}
	a := fromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	p, _ := a.Mul(i3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			approx(t, "A*I", p.At(i, j), a.At(i, j), 1e-12)
		}
	}
}

func TestWeightedGram(t *testing.T) {
	x := fromRows([][]float64{{1, 2}, {1, 3}, {1, 4}})
	w := []float64{1, 2, 3}
	g, err := WeightedGram(x, w)
	if err != nil {
		t.Fatal(err)
	}
	// Manual: sum w_i * x_i x_i^T.
	approx(t, "g00", g.At(0, 0), 6, 1e-12)
	approx(t, "g01", g.At(0, 1), 1*2+2*3+3*4, 1e-12)
	approx(t, "g11", g.At(1, 1), 1*4+2*9+3*16, 1e-12)
	approx(t, "symmetry", g.At(1, 0), g.At(0, 1), 0)
	// Nil weights = unit weights.
	g2, _ := WeightedGram(x, nil)
	approx(t, "unit g00", g2.At(0, 0), 3, 1e-12)
	if _, err := WeightedGram(x, []float64{1}); !errors.Is(err, ErrShape) {
		t.Error("bad weight length should fail")
	}
}

func TestWeightedXtY(t *testing.T) {
	x := fromRows([][]float64{{1, 2}, {1, 3}})
	v, err := WeightedXtY(x, []float64{2, 1}, []float64{10, 20})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "xty0", v[0], 2*10+1*20, 1e-12)
	approx(t, "xty1", v[1], 2*2*10+3*1*20, 1e-12)
}

func TestCholeskyAndSolve(t *testing.T) {
	// SPD matrix with known factor: A = [[4,2],[2,3]].
	a := fromRows([][]float64{{4, 2}, {2, 3}})
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "l00", l.At(0, 0), 2, 1e-12)
	approx(t, "l10", l.At(1, 0), 1, 1e-12)
	approx(t, "l11", l.At(1, 1), math.Sqrt(2), 1e-12)
	x, err := SolveChol(a, []float64{10, 8})
	if err != nil {
		t.Fatal(err)
	}
	// Verify A x = b.
	approx(t, "chol x0", 4*x[0]+2*x[1], 10, 1e-10)
	approx(t, "chol x1", 2*x[0]+3*x[1], 8, 1e-10)
	// Non-SPD rejected.
	bad := fromRows([][]float64{{1, 2}, {2, 1}})
	if _, err := Cholesky(bad); !errors.Is(err, ErrSingular) {
		t.Error("indefinite matrix should fail Cholesky")
	}
}

func TestSolveGauss(t *testing.T) {
	// Non-symmetric system requiring pivoting.
	a := fromRows([][]float64{{0, 2, 1}, {1, -2, -3}, {-1, 1, 2}})
	b := []float64{-8, 0, 3}
	x, err := SolveGauss(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got := 0.0
		for j := 0; j < 3; j++ {
			got += a.At(i, j) * x[j]
		}
		approx(t, "gauss residual", got, b[i], 1e-10)
	}
	sing := fromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := SolveGauss(sing, []float64{1, 2}); !errors.Is(err, ErrSingular) {
		t.Error("singular matrix should fail")
	}
}

func TestInverse(t *testing.T) {
	a := fromRows([][]float64{{4, 7}, {2, 6}})
	inv, err := Inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	// Known inverse: 1/10 [[6,-7],[-2,4]].
	approx(t, "inv00", inv.At(0, 0), 0.6, 1e-10)
	approx(t, "inv01", inv.At(0, 1), -0.7, 1e-10)
	approx(t, "inv10", inv.At(1, 0), -0.2, 1e-10)
	approx(t, "inv11", inv.At(1, 1), 0.4, 1e-10)
}

func TestSolveSPDRandomProperty(t *testing.T) {
	// For random SPD A and x: SolveSPD(A, A x) returns x.
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		n := 1 + rng.Intn(6)
		m := New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				m.Set(i, j, rng.NormFloat64())
			}
		}
		// A = M M^T + I is SPD.
		a, _ := m.Mul(m.T())
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+1)
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		b, _ := a.MulVec(x)
		got, err := SolveSPD(a, b)
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
