package eigen

import (
	"math"
	"math/rand"
	"testing"

	"eigenpro/internal/kernel"
	"eigenpro/internal/mat"
)

// gaussianGram returns the Gaussian Gram of n rows cycling through
// `distinct` random points in [0,1]^d.
func gaussianGram(seed int64, n, distinct, d int, sigma float64) *mat.Dense {
	rng := rand.New(rand.NewSource(seed))
	pts := mat.NewDense(distinct, d)
	for i := range pts.Data {
		pts.Data[i] = rng.Float64()
	}
	x := mat.NewDense(n, d)
	for i := 0; i < n; i++ {
		copy(x.RowView(i), pts.RowView(i%distinct))
	}
	return kernel.Gram(kernel.Gaussian{Sigma: sigma}, x)
}

// TestTopQSymRankDeficientGrams runs the spectrum estimate's settings (12
// iterations, oversample 20) on Grams whose numerical rank is below the
// block: 600 rows with only 100 distinct points (q = 150, so the block of
// 170 exceeds the rank), and a low-dimensional Gram whose eigenvalues
// fall to roundoff within a few dozen. The top eigenvalues must match the
// dense solver's and the Ritz vectors must stay orthonormal; a Gram–Schmidt
// that loses orthogonality on the dependent rows inflates λ₁ instead.
// kernel.Gram leaves some of a duplicate point's entries a few ulps apart;
// with bit-identical duplicates the iteration has only 100 directions to
// keep and this check would fail.
func TestTopQSymRankDeficientGrams(t *testing.T) {
	for _, c := range []struct {
		name string
		g    *mat.Dense
		q    int
	}{
		{"600 rows, 100 distinct points", gaussianGram(41, 600, 100, 10, 1), 150},
		{"400 points in 2-d", gaussianGram(42, 400, 400, 2, 1), 60},
	} {
		full, err := Sym(c.g)
		if err != nil {
			t.Fatal(err)
		}
		top, err := TopQSym(c.g, c.q, TopQOptions{Iters: 12, Oversample: 20, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		lam1 := full.Values[0]
		for i, v := range top.Values {
			if math.IsNaN(v) || math.Abs(v-full.Values[i]) > 1e-12*lam1 {
				t.Fatalf("%s: eigenvalue %d = %v, dense solver %v (λ₁ %v)", c.name, i, v, full.Values[i], lam1)
			}
		}
		for i, v := range top.Vectors.Data {
			if math.IsNaN(v) {
				t.Fatalf("%s: vector element %d is NaN", c.name, i)
			}
		}
		vtv := mat.TMul(top.Vectors, top.Vectors)
		mat.SubInPlace(vtv, mat.Eye(c.q))
		if d := vtv.FrobeniusNorm(); d > 1e-12 {
			t.Fatalf("%s: ‖VᵀV − I‖_F = %g", c.name, d)
		}
	}
}

var sinkSystem *System

// BenchmarkTopQSym times the spectrum estimate at train-mnist's shape: a
// 600x600 Gaussian Gram of 784-feature rows, q = 150, with the options
// core.EstimateSpectrum passes.
func BenchmarkTopQSym(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	x := mat.NewDense(600, 784)
	for i := range x.Data {
		x.Data[i] = rng.Float64()
	}
	gram := kernel.Gram(kernel.Gaussian{Sigma: 5}, x)
	opts := TopQOptions{Iters: 12, Oversample: 20, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := TopQSym(gram, 150, opts)
		if err != nil {
			b.Fatal(err)
		}
		sinkSystem = s
	}
}
