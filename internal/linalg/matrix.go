// Package linalg is a small dense linear-algebra substrate sized for the
// regression fits in this repository: column-major-free row-major matrices,
// products, and symmetric positive-definite solves (Cholesky with a
// partial-pivoting Gaussian fallback). The iteratively reweighted least
// squares (IRLS) fitter in internal/regress solves (X^T W X) beta = X^T W z
// every iteration through this package.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a solve encounters a (numerically) singular
// matrix.
var ErrSingular = errors.New("linalg: singular matrix")

// ErrShape is returned when operand dimensions do not match.
var ErrShape = errors.New("linalg: dimension mismatch")

// Matrix is a dense row-major matrix.
type Matrix struct {
	rows, cols int
	data       []float64
}

// New returns a zeroed rows x cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// Rows returns the row count.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the column count.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []float64 {
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	t := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Mul returns the matrix product m * b.
func (m *Matrix) Mul(b *Matrix) (*Matrix, error) {
	if m.cols != b.rows {
		return nil, fmt.Errorf("%w: (%dx%d) * (%dx%d)", ErrShape, m.rows, m.cols, b.rows, b.cols)
	}
	out := New(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			for j := 0; j < b.cols; j++ {
				out.data[i*out.cols+j] += a * b.At(k, j)
			}
		}
	}
	return out, nil
}

// MulVec returns the matrix-vector product m * v.
func (m *Matrix) MulVec(v []float64) ([]float64, error) {
	if m.cols != len(v) {
		return nil, fmt.Errorf("%w: (%dx%d) * vec(%d)", ErrShape, m.rows, m.cols, len(v))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		s := 0.0
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, a := range row {
			s += a * v[j]
		}
		out[i] = s
	}
	return out, nil
}

// WeightedGram computes X^T diag(w) X for design matrix X (rows are
// observations); a nil w means unit weights.
func WeightedGram(x *Matrix, w []float64) (*Matrix, error) {
	if w != nil && len(w) != x.rows {
		return nil, fmt.Errorf("%w: %d weights for %d rows", ErrShape, len(w), x.rows)
	}
	p := x.cols
	out := New(p, p)
	for i := 0; i < x.rows; i++ {
		wi := 1.0
		if w != nil {
			wi = w[i]
		}
		if wi == 0 {
			continue
		}
		row := x.data[i*p : (i+1)*p]
		for a := 0; a < p; a++ {
			va := wi * row[a]
			if va == 0 {
				continue
			}
			for b := a; b < p; b++ {
				out.data[a*p+b] += va * row[b]
			}
		}
	}
	// Mirror the upper triangle.
	for a := 0; a < p; a++ {
		for b := a + 1; b < p; b++ {
			out.data[b*p+a] = out.data[a*p+b]
		}
	}
	return out, nil
}

// WeightedXtY computes X^T diag(w) y; a nil w means unit weights.
func WeightedXtY(x *Matrix, w, y []float64) ([]float64, error) {
	if len(y) != x.rows || (w != nil && len(w) != x.rows) {
		return nil, fmt.Errorf("%w: weightedXtY with %d rows, %d y, %d w", ErrShape, x.rows, len(y), len(w))
	}
	p := x.cols
	out := make([]float64, p)
	for i := 0; i < x.rows; i++ {
		wi := 1.0
		if w != nil {
			wi = w[i]
		}
		c := wi * y[i]
		if c == 0 {
			continue
		}
		row := x.data[i*p : (i+1)*p]
		for j, a := range row {
			out[j] += c * a
		}
	}
	return out, nil
}

// Cholesky computes the lower-triangular factor L with A = L L^T for a
// symmetric positive-definite matrix A. It returns ErrSingular when a
// pivot is non-positive.
func Cholesky(a *Matrix) (*Matrix, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("%w: cholesky of %dx%d", ErrShape, a.rows, a.cols)
	}
	n := a.rows
	l := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if s <= 0 || math.IsNaN(s) {
					return nil, ErrSingular
				}
				l.Set(i, i, math.Sqrt(s))
			} else {
				l.Set(i, j, s/l.At(j, j))
			}
		}
	}
	return l, nil
}

// SolveChol solves A x = b for symmetric positive-definite A via Cholesky.
func SolveChol(a *Matrix, b []float64) ([]float64, error) {
	l, err := Cholesky(a)
	if err != nil {
		return nil, err
	}
	n := a.rows
	if len(b) != n {
		return nil, fmt.Errorf("%w: solve %dx%d with rhs(%d)", ErrShape, n, n, len(b))
	}
	// Forward substitution: L y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * y[k]
		}
		y[i] = s / l.At(i, i)
	}
	// Back substitution: L^T x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x, nil
}

// SolveGauss solves A x = b by Gaussian elimination with partial pivoting.
// It works for any non-singular square A and is the fallback when Cholesky
// rejects a barely-indefinite IRLS normal matrix.
func SolveGauss(a *Matrix, b []float64) ([]float64, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("%w: gauss on %dx%d", ErrShape, a.rows, a.cols)
	}
	n := a.rows
	if len(b) != n {
		return nil, fmt.Errorf("%w: gauss %dx%d with rhs(%d)", ErrShape, n, n, len(b))
	}
	m := a.Clone()
	x := make([]float64, n)
	copy(x, b)
	for col := 0; col < n; col++ {
		// Partial pivot.
		piv := col
		best := math.Abs(m.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m.At(r, col)); v > best {
				best, piv = v, r
			}
		}
		if best < 1e-300 {
			return nil, ErrSingular
		}
		if piv != col {
			for j := 0; j < n; j++ {
				m.data[col*n+j], m.data[piv*n+j] = m.data[piv*n+j], m.data[col*n+j]
			}
			x[col], x[piv] = x[piv], x[col]
		}
		inv := 1 / m.At(col, col)
		for r := col + 1; r < n; r++ {
			f := m.At(r, col) * inv
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				m.data[r*n+j] -= f * m.data[col*n+j]
			}
			x[r] -= f * x[col]
		}
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= m.At(i, j) * x[j]
		}
		x[i] = s / m.At(i, i)
	}
	return x, nil
}

// SolveSPD solves A x = b preferring Cholesky and falling back to Gaussian
// elimination.
func SolveSPD(a *Matrix, b []float64) ([]float64, error) {
	if x, err := SolveChol(a, b); err == nil {
		return x, nil
	}
	return SolveGauss(a, b)
}

// IsSymmetric reports whether the matrix is symmetric to within tol.
func (m *Matrix) IsSymmetric(tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	for i := 0; i < m.rows; i++ {
		for j := i + 1; j < m.cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// Inverse returns A^{-1} by solving against identity columns. Symmetric
// matrices go through the Cholesky path (with a Gaussian fallback);
// non-symmetric ones use Gaussian elimination directly, since Cholesky
// would silently read only the lower triangle.
func Inverse(a *Matrix) (*Matrix, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("%w: inverse of %dx%d", ErrShape, a.rows, a.cols)
	}
	solve := SolveGauss
	if a.IsSymmetric(0) {
		solve = SolveSPD
	}
	n := a.rows
	inv := New(n, n)
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		col, err := solve(a, e)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			inv.Set(i, j, col[i])
		}
	}
	return inv, nil
}
