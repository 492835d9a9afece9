package eigen

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"eigenpro/internal/mat"
)

// LanczosOptions configures the Lanczos solver.
type LanczosOptions struct {
	// Steps is the Krylov subspace dimension; values < 1 default to
	// min(2q+20, n).
	Steps int
	// Seed fixes the random starting vector.
	Seed int64
}

// Lanczos computes the q leading eigenpairs of a symmetric matrix with the
// Lanczos iteration and full reorthogonalization, then solves the small
// tridiagonal problem with the QL solver. It is a third, algorithmically
// independent route to the top spectrum (after Sym and TopQSym), kept in
// the tests for triangulated cross-checks.
func Lanczos(a *mat.Dense, q int, opt LanczosOptions) (*System, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("eigen: Lanczos of non-square %dx%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	if q < 1 || q > n {
		return nil, fmt.Errorf("eigen: Lanczos q=%d out of [1,%d]", q, n)
	}
	steps := opt.Steps
	if steps < 1 {
		steps = 2*q + 20
	}
	if steps > n {
		steps = n
	}
	if steps < q {
		return nil, fmt.Errorf("eigen: Lanczos needs steps >= q (%d < %d)", steps, q)
	}

	rng := rand.New(rand.NewSource(opt.Seed))
	// Krylov basis vectors stored as rows for contiguity.
	v := mat.NewDense(steps, n)
	alpha := make([]float64, steps)
	beta := make([]float64, steps) // beta[j] couples v_j and v_{j+1}

	v0 := v.RowView(0)
	for i := range v0 {
		v0[i] = rng.NormFloat64()
	}
	normalize(v0)

	used := steps
	for j := 0; j < steps; j++ {
		vj := v.RowView(j)
		w := mat.MulVec(a, vj)
		alpha[j] = mat.Dot(vj, w)
		mat.Axpy(-alpha[j], vj, w)
		if j > 0 {
			mat.Axpy(-beta[j-1], v.RowView(j-1), w)
		}
		// Full reorthogonalization: Lanczos without it loses orthogonality
		// as Ritz values converge.
		for pass := 0; pass < 2; pass++ {
			for p := 0; p <= j; p++ {
				vp := v.RowView(p)
				c := mat.Dot(vp, w)
				mat.Axpy(-c, vp, w)
			}
		}
		b := mat.Norm2(w)
		if j+1 < steps {
			if b < 1e-12 {
				// Invariant subspace found early; truncate the basis.
				used = j + 1
				break
			}
			beta[j] = b
			next := v.RowView(j + 1)
			inv := 1 / b
			for i := range next {
				next[i] = w[i] * inv
			}
		}
	}
	if used < q {
		return nil, fmt.Errorf("eigen: Lanczos basis collapsed to %d < q=%d", used, q)
	}

	// Solve the small tridiagonal eigenproblem T = tridiag(beta, alpha,
	// beta) with the dense symmetric solver.
	t := mat.NewDense(used, used)
	for j := 0; j < used; j++ {
		t.Set(j, j, alpha[j])
		if j+1 < used {
			t.Set(j, j+1, beta[j])
			t.Set(j+1, j, beta[j])
		}
	}
	small, err := Sym(t)
	if err != nil {
		return nil, err
	}
	top := small.TopQ(q)
	// Lift Ritz vectors back: x_i = Vᵀ y_i.
	basisIdx := make([]int, used)
	for i := range basisIdx {
		basisIdx[i] = i
	}
	basis := v.SelectRows(basisIdx) // used x n
	vectors := mat.TMul(basis, top.Vectors)
	return &System{Values: top.Values, Vectors: vectors}, nil
}

func normalize(x []float64) {
	n := mat.Norm2(x)
	if n == 0 {
		return
	}
	inv := 1 / n
	for i := range x {
		x[i] *= inv
	}
}

func TestLanczosMatchesFullSolver(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	for _, n := range []int{10, 40, 100} {
		a := randPSD(rng, n)
		full, err := Sym(a)
		if err != nil {
			t.Fatal(err)
		}
		q := 5
		// Random Wishart spectra have small eigengaps; give the Krylov
		// space room to resolve the 5th Ritz vector.
		lz, err := Lanczos(a, q, LanczosOptions{Seed: 1, Steps: n/2 + 2*q})
		if err != nil {
			t.Fatal(err)
		}
		if len(lz.Values) != q {
			t.Fatalf("got %d values", len(lz.Values))
		}
		for i := 0; i < q; i++ {
			rel := math.Abs(lz.Values[i]-full.Values[i]) / (1 + math.Abs(full.Values[i]))
			if rel > 1e-6 {
				t.Fatalf("n=%d eigenvalue %d: lanczos %v vs full %v", n, i, lz.Values[i], full.Values[i])
			}
		}
		checkSystem(t, a, lz, 1e-4*float64(n))
	}
}

func TestLanczosThreeWayAgreement(t *testing.T) {
	// Sym (QL), TopQSym (subspace iteration) and Lanczos are independent
	// algorithms; all three must agree on the leading spectrum.
	rng := rand.New(rand.NewSource(91))
	a := randPSD(rng, 60)
	q := 4
	s1, err := Sym(a)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := TopQSym(a, q, TopQOptions{Iters: 40, Oversample: 15, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	s3, err := Lanczos(a, q, LanczosOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < q; i++ {
		ref := s1.Values[i]
		if math.Abs(s2.Values[i]-ref) > 1e-5*(1+ref) || math.Abs(s3.Values[i]-ref) > 1e-5*(1+ref) {
			t.Fatalf("eigenvalue %d disagreement: QL %v, subspace %v, lanczos %v",
				i, ref, s2.Values[i], s3.Values[i])
		}
	}
}

func TestLanczosInvariantSubspaceEarlyStop(t *testing.T) {
	// A rank-2 matrix collapses the Krylov basis after ~2 steps; asking
	// for 2 eigenpairs must still work.
	rng := rand.New(rand.NewSource(92))
	u := mat.NewDense(30, 2)
	for i := range u.Data {
		u.Data[i] = rng.NormFloat64()
	}
	a := mat.MulT(u, u)
	lz, err := Lanczos(a, 2, LanczosOptions{Seed: 4, Steps: 10})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Sym(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if math.Abs(lz.Values[i]-full.Values[i]) > 1e-7*(1+full.Values[i]) {
			t.Fatalf("rank-2 eigenvalue %d: %v vs %v", i, lz.Values[i], full.Values[i])
		}
	}
}

func TestLanczosErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	a := randPSD(rng, 10)
	if _, err := Lanczos(mat.NewDense(2, 3), 1, LanczosOptions{}); err == nil {
		t.Fatal("non-square must error")
	}
	if _, err := Lanczos(a, 0, LanczosOptions{}); err == nil {
		t.Fatal("q=0 must error")
	}
	if _, err := Lanczos(a, 11, LanczosOptions{}); err == nil {
		t.Fatal("q>n must error")
	}
	if _, err := Lanczos(a, 5, LanczosOptions{Steps: 3}); err == nil {
		t.Fatal("steps<q must error")
	}
}

func TestLanczosDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	a := randPSD(rng, 25)
	s1, _ := Lanczos(a, 3, LanczosOptions{Seed: 5})
	s2, _ := Lanczos(a, 3, LanczosOptions{Seed: 5})
	for i := range s1.Values {
		if s1.Values[i] != s2.Values[i] {
			t.Fatal("Lanczos not deterministic for fixed seed")
		}
	}
}
