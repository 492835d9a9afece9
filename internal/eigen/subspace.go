package eigen

import (
	"fmt"
	"math"
	"math/rand"

	"eigenpro/internal/mat"
)

// TopQOptions configures TopQSym block subspace iteration.
type TopQOptions struct {
	// Iters is the number of power iterations; PSD kernel matrices have
	// fast eigendecay, so a handful suffices. Values < 1 default to 8.
	Iters int
	// Oversample adds extra probe directions beyond q for accuracy;
	// values < 0 default to min(10, dim-q).
	Oversample int
	// Seed makes the random probe matrix deterministic.
	Seed int64
}

// TopQSym computes the q leading eigenpairs of a symmetric positive
// semi-definite matrix by randomized block subspace (orthogonal) iteration:
// repeatedly apply A to an orthonormal block, then solve the small projected
// eigenproblem. For the rapidly decaying spectra of kernel matrices this
// costs O(n^2 (q+p) iters) instead of the O(n^3) full solve.
//
// The block is kept as Qᵀ, one basis vector per contiguous row, so that
// (AQ)ᵀ = QᵀAᵀ, the Rayleigh–Ritz matrix and the Ritz vectors are a·bᵀ
// products on the GEMM micro-kernel and the orthonormalization sweeps rows.
func TopQSym(a *mat.Dense, q int, opt TopQOptions) (*System, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("eigen: TopQSym of non-square %dx%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	if q < 0 || q > n {
		return nil, fmt.Errorf("eigen: TopQSym q=%d out of range for n=%d", q, n)
	}
	if q == 0 {
		return &System{Values: nil, Vectors: mat.NewDense(n, 0)}, nil
	}
	iters := opt.Iters
	if iters < 1 {
		iters = 8
	}
	over := opt.Oversample
	if over < 0 {
		over = 10
	}
	if q+over > n {
		over = n - q
	}
	b := q + over

	// The n x b Gaussian probe, drawn row by row, stored transposed.
	rng := rand.New(rand.NewSource(opt.Seed))
	qt := mat.NewDense(b, n)
	for i := 0; i < n; i++ {
		for j := 0; j < b; j++ {
			qt.Data[j*n+i] = rng.NormFloat64()
		}
	}
	mat.OrthonormalizeRows(qt)
	aqt := mat.NewDense(b, n)
	for it := 0; it < iters; it++ {
		mat.MulTTo(aqt, qt, a) // (AQ)ᵀ
		mat.OrthonormalizeRows(aqt)
		qt, aqt = aqt, qt
	}
	// Rayleigh–Ritz: T = Qᵀ(AQ), then eigendecompose the small b x b system.
	mat.MulTTo(aqt, qt, a)
	t := mat.NewDense(b, b)
	mat.MulTTo(t, qt, aqt)
	small, err := Sym(t)
	if err != nil {
		return nil, err
	}
	topVals := make([]float64, q)
	copy(topVals, small.Values[:q])
	// Ritz vectors Q·W for the q leading columns W of the small system.
	wt := mat.NewDense(q, b)
	for i := 0; i < b; i++ {
		for j, v := range small.Vectors.RowView(i)[:q] {
			wt.Data[j*b+i] = v
		}
	}
	vectors := mat.NewDense(n, q)
	mat.MulTTo(vectors, qt.T(), wt)
	return &System{Values: topVals, Vectors: vectors}, nil
}

// Residual returns max_i ||A v_i - λ_i v_i||_2, a convergence diagnostic
// for an approximate eigensystem.
func Residual(a *mat.Dense, s *System) float64 {
	if len(s.Values) == 0 {
		return 0
	}
	av := mat.Mul(a, s.Vectors)
	worst := 0.0
	for j, lam := range s.Values {
		sum := 0.0
		for i := 0; i < a.Rows; i++ {
			r := av.At(i, j) - lam*s.Vectors.At(i, j)
			sum += r * r
		}
		if sum > worst {
			worst = sum
		}
	}
	return math.Sqrt(worst)
}
