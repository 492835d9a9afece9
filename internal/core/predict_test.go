package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"eigenpro/internal/kernel"
	"eigenpro/internal/mat"
)

func randModel(rng *rand.Rand, centers, dim, labels int) *Model {
	m := NewModel(kernel.Gaussian{Sigma: 1.5}, randDense(rng, centers, dim), labels)
	for i := range m.Alpha.Data {
		m.Alpha.Data[i] = rng.NormFloat64()
	}
	return m
}

func randDense(rng *rand.Rand, r, c int) *mat.Dense {
	d := mat.NewDense(r, c)
	for i := range d.Data {
		d.Data[i] = rng.NormFloat64()
	}
	return d
}

// predictNaive is the reference: evaluate every (query, center) kernel
// entry and contract with Alpha, no blocking or goroutines.
func predictNaive(m *Model, xq *mat.Dense) *mat.Dense {
	out := mat.NewDense(xq.Rows, m.Alpha.Cols)
	for i := 0; i < xq.Rows; i++ {
		for c := 0; c < m.X.Rows; c++ {
			k := m.Kern.Eval(xq.RowView(i), m.X.RowView(c))
			for j := 0; j < m.Alpha.Cols; j++ {
				out.Data[i*out.Cols+j] += k * m.Alpha.At(c, j)
			}
		}
	}
	return out
}

func TestPredictBatchMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := randModel(rng, 37, 6, 4)
	xq := randDense(rng, 53, 6)
	want := predictNaive(m, xq)
	// Chunk sizes exercising: single chunk, uneven tail, chunk=1, and the
	// default.
	for _, chunk := range []int{0, 1, 7, 53, 64} {
		got := m.PredictBatch(xq, chunk)
		if !mat.Equal(got, want, 1e-10) {
			t.Fatalf("chunk=%d: PredictBatch diverges from naive prediction", chunk)
		}
	}
	if got := m.Predict(xq); !mat.Equal(got, want, 1e-10) {
		t.Fatal("Predict diverges from naive prediction")
	}
}

func requireSameBits(t *testing.T, what string, got, want *mat.Dense) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, v := range got.Data {
		if math.Float64bits(v) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %v, want %v bit for bit", what, i, v, want.Data[i])
		}
	}
}

// TestPredictBatchBitsIndependentOfChunkAndBatch pins the serving
// guarantee: a row's prediction has the same bits whatever the chunk size
// and whichever rows share its batch, so a served row equals Predict on
// that row alone.
func TestPredictBatchBitsIndependentOfChunkAndBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := randModel(rng, 301, 37, 10)
	xq := randDense(rng, 45, 37)
	want := m.PredictBatch(xq, 0)
	for _, chunk := range []int{1, 7} {
		requireSameBits(t, "chunk size", m.PredictBatch(xq, chunk), want)
	}
	for i := 0; i < xq.Rows; i++ {
		row := mat.NewDenseData(1, xq.Cols, xq.RowView(i))
		requireSameBits(t, "row alone", m.Predict(row), want.SliceRows(i, i+1))
	}
	// Concurrent callers share the model's cached norms and pooled buffers.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lo := g * 10
			got := m.PredictBatch(xq.SliceRows(lo, lo+5), 0)
			for i, v := range got.Data {
				if math.Float64bits(v) != math.Float64bits(want.Data[lo*want.Cols+i]) {
					t.Errorf("concurrent caller %d: element %d differs", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCenterNormsFollowX checks the cached ‖x_i‖² are computed once and
// recomputed when the model is given new centers.
func TestCenterNormsFollowX(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m := randModel(rng, 20, 5, 2)
	first := m.centerNorms()
	if &m.centerNorms()[0] != &first[0] {
		t.Fatal("center norms recomputed for unchanged X")
	}
	xq := randDense(rng, 3, 5)
	m.X = randDense(rng, 20, 5)
	if got, want := m.centerNorms(), mat.RowSumSq(m.X); got[0] != want[0] {
		t.Fatal("center norms not recomputed for a new X")
	}
	if got, want := m.Predict(xq), predictNaive(m, xq); !mat.Equal(got, want, 1e-10) {
		t.Fatal("prediction after replacing X uses stale center norms")
	}
}

func TestPredictBatchEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := randModel(rng, 10, 3, 2)
	if out := m.PredictBatch(mat.NewDense(0, 3), 4); out.Rows != 0 || out.Cols != 2 {
		t.Fatalf("empty query: got %dx%d", out.Rows, out.Cols)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("feature mismatch did not panic")
		}
	}()
	m.PredictBatch(mat.NewDense(1, 4), 0)
}

func TestPredictOps(t *testing.T) {
	if got, want := PredictOps(100, 8, 20, 5), float64(100*8*25); got != want {
		t.Fatalf("PredictOps = %v, want %v", got, want)
	}
	if PredictOps(100, 8, 20, 5) != SGDIterOps(100, 8, 20, 5) {
		t.Fatal("PredictOps must match the SGD kernel+prediction cost")
	}
}
