package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randSPD returns a random symmetric positive definite n x n matrix.
func randSPD(rng *rand.Rand, n int) *Dense {
	a := randDense(rng, n, n)
	spd := MulT(a, a) // A*Aᵀ is PSD
	for i := 0; i < n; i++ {
		spd.Set(i, i, spd.At(i, i)+float64(n)) // shift to make strictly PD
	}
	return spd
}

func TestCholeskyReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, n := range []int{1, 2, 5, 20, 50} {
		a := randSPD(rng, n)
		l, err := Cholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		recon := MulT(l, l)
		if !Equal(recon, a, 1e-8*float64(n)) {
			t.Fatalf("n=%d: L*Lᵀ != A", n)
		}
		// L must be lower triangular.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if l.At(i, j) != 0 {
					t.Fatalf("n=%d: L not lower triangular at (%d,%d)", n, i, j)
				}
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewDenseData(2, 2, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	if _, err := Cholesky(a); err != ErrNotPositiveDefinite {
		t.Fatalf("err = %v, want ErrNotPositiveDefinite", err)
	}
}

func TestCholeskySolve(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 30
	a := randSPD(rng, n)
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b := MulVec(a, x)
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	got := CholeskySolve(l, b)
	for i := range got {
		if math.Abs(got[i]-x[i]) > 1e-7 {
			t.Fatalf("solve[%d] = %v, want %v", i, got[i], x[i])
		}
	}
}

func TestCholeskySolveMat(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := 15
	a := randSPD(rng, n)
	x := randDense(rng, n, 4)
	b := Mul(a, x)
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	got := CholeskySolveMat(l, b)
	if !Equal(got, x, 1e-7) {
		t.Fatal("CholeskySolveMat mismatch")
	}
}

func TestTriangularSolves(t *testing.T) {
	l := NewDenseData(3, 3, []float64{2, 0, 0, 1, 3, 0, -1, 2, 4})
	x := []float64{1, -2, 0.5}
	b := MulVec(l, x)
	got := SolveLowerTri(l, b)
	for i := range got {
		if math.Abs(got[i]-x[i]) > 1e-12 {
			t.Fatalf("SolveLowerTri[%d] = %v, want %v", i, got[i], x[i])
		}
	}
	bt := MulVec(l.T(), x)
	gotT := SolveUpperTriFromLowerT(l, bt)
	for i := range gotT {
		if math.Abs(gotT[i]-x[i]) > 1e-12 {
			t.Fatalf("SolveUpperTriFromLowerT[%d] = %v, want %v", i, gotT[i], x[i])
		}
	}
}

// orthonormalizeRowsRef is OrthonormalizeRows on the pure-Go dotFMA and
// subScaledGo, the oracle for the assembly kernels.
func orthonormalizeRowsRef(a *Dense) {
	for j := 0; j < a.Rows; j++ {
		qj := a.RowView(j)
		for pass := 0; pass < 2; pass++ {
			for p := 0; p < j; p++ {
				qp := a.RowView(p)
				subScaledGo(dotFMA(qp, qj), qp, qj)
			}
		}
		norm := math.Sqrt(dotFMA(qj, qj))
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

func TestOrthonormalizeRowsOrthonormalAndSpans(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, dims := range [][2]int{{5, 5}, {4, 10}, {12, 40}, {1, 7}, {0, 3}} {
		a := randDense(rng, dims[0], dims[1])
		q := a.Clone()
		OrthonormalizeRows(q)
		want := a.Clone()
		orthonormalizeRowsRef(want)
		sameBits(t, fmt.Sprintf("rows %v against the dotFMA oracle", dims), q, want)
		// QQᵀ = I
		if !Equal(MulT(q, q), Eye(dims[0]), 1e-10) {
			t.Fatalf("rows %v: QQᵀ != I", dims)
		}
		// Projecting the rows of A onto span(Q) reproduces them: A QᵀQ = A.
		if !Equal(Mul(MulT(a, q), q), a, 1e-10) {
			t.Fatalf("rows %v: Q does not span the rows of A", dims)
		}
	}
	// More vectors than dimensions cannot be orthonormal.
	for name, f := range map[string]func(){
		"OrthonormalizeRows 3x2": func() { OrthonormalizeRows(NewDense(3, 2)) },
		"Orthonormalize 2x3":     func() { Orthonormalize(NewDense(2, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
	for _, dims := range [][2]int{{5, 5}, {10, 4}, {40, 12}} {
		a := randDense(rng, dims[0], dims[1])
		q := Orthonormalize(a)
		if !Equal(TMul(q, q), Eye(dims[1]), 1e-10) {
			t.Fatalf("cols %v: QᵀQ != I", dims)
		}
		if !Equal(Mul(q, TMul(q, a)), a, 1e-10) {
			t.Fatalf("cols %v: Q does not span the columns of A", dims)
		}
	}
}

func TestOrthonormalizeRowsDependentRowIsZero(t *testing.T) {
	// Row 1 is 3·row 0, and every step on it is exact (row 0 normalizes to
	// 0.5s), so MGS2 leaves it exactly zero; row 2 stays a unit vector.
	a := NewDenseData(3, 4, []float64{1, 1, 1, 1, 3, 3, 3, 3, 1, -1, 1, -1})
	OrthonormalizeRows(a)
	want := NewDenseData(3, 4, []float64{0.5, 0.5, 0.5, 0.5, 0, 0, 0, 0, 0.5, -0.5, 0.5, -0.5})
	sameBits(t, "rows", a, want)
	// The same matrix in columns, through the wrapper.
	q := Orthonormalize(NewDenseData(4, 3, []float64{1, 3, 1, 1, 3, -1, 1, 3, 1, 1, 3, -1}))
	sameBits(t, "columns", q, want.T())
	// A dependent row that does not cancel exactly still leaves the first
	// row spanning the rank-1 input.
	b := NewDenseData(2, 3, []float64{1, 1, 1, 2, 2, 2})
	qb := b.Clone()
	OrthonormalizeRows(qb)
	if !Equal(Mul(MulT(b, qb.SliceRows(0, 1)), qb.SliceRows(0, 1)), b, 1e-10) {
		t.Fatal("first row does not span a rank-1 input")
	}
}

func TestOrthonormalizeSpansSameSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := randDense(rng, 20, 5)
	q := Orthonormalize(a)
	// Projecting A onto span(Q) must reproduce A: Q Qᵀ A == A.
	proj := Mul(q, TMul(q, a))
	if !Equal(proj, a, 1e-9) {
		t.Fatal("Q does not span col(A)")
	}
}

// Property: Cholesky solve returns a vector satisfying A x = b.
func TestQuickCholeskySolveResidual(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(25)
		a := randSPD(r, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		l, err := Cholesky(a)
		if err != nil {
			return false
		}
		x := CholeskySolve(l, b)
		res := MulVec(a, x)
		for i := range res {
			if math.Abs(res[i]-b[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

var sinkDense *Dense

// BenchmarkOrthonormalize times the column-layout wrapper at the s x (q+20)
// block of train-mnist's subspace iteration (600x170).
func BenchmarkOrthonormalize(b *testing.B) {
	rng := rand.New(rand.NewSource(16))
	a := randDense(rng, 600, 170)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkDense = Orthonormalize(a)
	}
}
