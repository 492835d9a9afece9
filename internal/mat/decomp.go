package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned by Cholesky when a pivot is not
// positive, i.e. the input matrix is not (numerically) positive definite.
var ErrNotPositiveDefinite = errors.New("mat: matrix is not positive definite")

// Cholesky computes the lower-triangular factor L with A = L Lᵀ for a
// symmetric positive definite matrix A. Only the lower triangle of A is
// read. It returns ErrNotPositiveDefinite if a non-positive pivot is
// encountered.
func Cholesky(a *Dense) (*Dense, error) {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("mat: Cholesky of non-square %dx%d matrix", a.Rows, a.Cols))
	}
	n := a.Rows
	l := NewDense(n, n)
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		lrowj := l.RowView(j)
		for p := 0; p < j; p++ {
			d -= lrowj[p] * lrowj[p]
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrNotPositiveDefinite
		}
		diag := math.Sqrt(d)
		lrowj[j] = diag
		inv := 1.0 / diag
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			lrowi := l.RowView(i)
			for p := 0; p < j; p++ {
				s -= lrowi[p] * lrowj[p]
			}
			lrowi[j] = s * inv
		}
	}
	return l, nil
}

// SolveLowerTri solves L*x = b for x where L is lower triangular
// (forward substitution). b is not modified.
func SolveLowerTri(l *Dense, b []float64) []float64 {
	n := l.Rows
	if len(b) != n {
		panic(fmt.Sprintf("mat: SolveLowerTri: rhs length %d for %dx%d", len(b), l.Rows, l.Cols))
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		row := l.RowView(i)
		for j := 0; j < i; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
	return x
}

// SolveUpperTriFromLowerT solves Lᵀ*x = b by back substitution given the
// lower factor L (so the effective system matrix is upper triangular).
func SolveUpperTriFromLowerT(l *Dense, b []float64) []float64 {
	n := l.Rows
	if len(b) != n {
		panic(fmt.Sprintf("mat: SolveUpperTriFromLowerT: rhs length %d for %dx%d", len(b), l.Rows, l.Cols))
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for j := i + 1; j < n; j++ {
			s -= l.At(j, i) * x[j]
		}
		x[i] = s / l.At(i, i)
	}
	return x
}

// CholeskySolve solves A*x = b given the lower Cholesky factor L of A.
func CholeskySolve(l *Dense, b []float64) []float64 {
	return SolveUpperTriFromLowerT(l, SolveLowerTri(l, b))
}

// CholeskySolveMat solves A*X = B column-by-column given the lower Cholesky
// factor L of A.
func CholeskySolveMat(l *Dense, b *Dense) *Dense {
	if l.Rows != b.Rows {
		panic(dimErr("CholeskySolveMat", l, b))
	}
	out := NewDense(b.Rows, b.Cols)
	for j := 0; j < b.Cols; j++ {
		out.SetCol(j, CholeskySolve(l, b.Col(j)))
	}
	return out
}

// OrthonormalizeRows makes the rows of a orthonormal in place, keeping the
// space they span: modified Gram–Schmidt with one re-orthogonalization pass
// (MGS2), each row swept twice against every earlier row in turn. A row
// whose remaining norm is at most 1e-300 (dependent on the rows before it)
// becomes zero. Each sweep reads and updates contiguous rows: every dot
// product is dotFMA and every update subScaledGo, through the assembly
// kernels where the CPU has AVX2 and FMA, so both paths give the same bits.
// It panics if a has more rows than columns.
func OrthonormalizeRows(a *Dense) {
	if a.Rows > a.Cols {
		panic(fmt.Sprintf("mat: OrthonormalizeRows needs rows <= cols, got %dx%d", a.Rows, a.Cols))
	}
	for j := 0; j < a.Rows; j++ {
		qj := a.RowView(j)
		for pass := 0; pass < 2; pass++ {
			for p := 0; p < j; p++ {
				qp := a.RowView(p)
				subScaled(dot(qp, qj), qp, qj)
			}
		}
		norm := math.Sqrt(dot(qj, qj))
		if norm > 1e-300 {
			inv := 1.0 / norm
			for i := range qj {
				qj[i] *= inv
			}
		} else {
			clear(qj)
		}
	}
}

// Orthonormalize returns a matrix whose columns orthonormally span the
// column space of a (rows >= cols): OrthonormalizeRows on aᵀ, transposed
// back.
func Orthonormalize(a *Dense) *Dense {
	at := a.T()
	OrthonormalizeRows(at)
	return at.T()
}
