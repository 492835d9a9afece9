package mat

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// mulTTRef is the one-output-at-a-time reference: dotFMA for every (i, j).
func mulTTRef(a, b *Dense) *Dense {
	out := NewDense(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			out.Set(i, j, dotFMA(a.RowView(i), b.RowView(j)))
		}
	}
	return out
}

func sameBits(t *testing.T, what string, got, want *Dense) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, v := range got.Data {
		if math.Float64bits(v) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element (%d,%d) = %v (%#x), want %v (%#x)", what,
				i/got.Cols, i%got.Cols, v, math.Float64bits(v), want.Data[i], math.Float64bits(want.Data[i]))
		}
	}
}

// withWorkers runs fn with the GEMM worker count set to w.
func withWorkers(w int, fn func()) {
	old := workers
	workers = w
	defer func() { workers = old }()
	fn()
}

// TestMulTToBitsMatchPureGo compares MulTTo, which runs the assembly
// micro-kernel where the CPU has AVX2 and FMA, with the pure-Go dotFMA
// computed one output at a time, bit for bit, over shapes that hit every
// tile edge: k below, at and past the 4-lane width and the tail, and row and
// column counts of 0, 1, odd and not multiples of the 2x4 tile.
func TestMulTToBitsMatchPureGo(t *testing.T) {
	t.Logf("assembly micro-kernel in use: %v (GOARCH=%s)", useAVX2FMA, runtime.GOARCH)
	rng := rand.New(rand.NewSource(11))
	for _, k := range []int{0, 1, 3, 4, 5, 17, 18, 784} {
		for _, n := range []int{0, 1, 2, 3, 5, 9} {
			for _, m := range []int{0, 1, 3, 4, 6, 13} {
				a, b := randDense(rng, n, k), randDense(rng, m, k)
				dst := NewDense(n, m)
				dst.Fill(math.NaN())
				MulTTo(dst, a, b)
				sameBits(t, fmt.Sprintf("MulTTo %dx%dx%d", n, m, k), dst, mulTTRef(a, b))
			}
		}
	}
	// Shapes large enough for the parallel 2-D split, including a single
	// row whose columns are split across workers.
	for _, dims := range [][3]int{{1, 2000, 784}, {7, 301, 33}, {60, 203, 18}, {64, 200, 18}, {33, 10, 600}} {
		a, b := randDense(rng, dims[0], dims[2]), randDense(rng, dims[1], dims[2])
		dst := NewDense(dims[0], dims[1])
		MulTTo(dst, a, b)
		sameBits(t, fmt.Sprintf("MulTTo %v", dims), dst, mulTTRef(a, b))
	}
}

// TestDotAndSubScaledBitsMatchPureGo compares the row kernels that
// OrthonormalizeRows runs, assembly where the CPU has AVX2 and FMA, with
// dotFMA and subScaledGo bit for bit, at lengths below, at and past the
// 4-lane width.
func TestDotAndSubScaledBitsMatchPureGo(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, k := range []int{0, 1, 3, 4, 5, 8, 17, 600} {
		x, y := randDense(rng, 1, k).Data, randDense(rng, 1, k+2).Data
		if got, want := dot(x, y), dotFMA(x, y); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("k=%d: dot = %v, dotFMA %v", k, got, want)
		}
		s := rng.NormFloat64()
		got, want := NewDenseData(1, k+2, append([]float64(nil), y...)), NewDenseData(1, k+2, y)
		subScaled(s, x, got.Data)
		subScaledGo(s, x, want.Data)
		sameBits(t, fmt.Sprintf("subScaled k=%d", k), got, want)
	}
}

// TestMulTToRowIndependentOfBatchAndWorkers checks that a row's outputs
// have the same bits computed alone, at every position inside a larger
// batch, and with one worker as with GOMAXPROCS.
func TestMulTToRowIndependentOfBatchAndWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, dims := range [][3]int{{37, 500, 784}, {61, 2000, 18}, {9, 130, 5}} {
		n, m, k := dims[0], dims[1], dims[2]
		a, b := randDense(rng, n, k), randDense(rng, m, k)
		full := NewDense(n, m)
		MulTTo(full, a, b)
		serial := NewDense(n, m)
		withWorkers(1, func() { MulTTo(serial, a, b) })
		sameBits(t, fmt.Sprintf("%v one worker vs GOMAXPROCS", dims), serial, full)
		for i := 0; i < n; i++ {
			row := NewDense(1, m)
			MulTTo(row, a.SliceRows(i, i+1), b)
			sameBits(t, fmt.Sprintf("%v row %d alone vs in batch", dims, i), row, full.SliceRows(i, i+1))
		}
	}
}

func TestMulTToNearNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, dims := range [][3]int{{1, 1, 1}, {5, 7, 3}, {31, 17, 784}, {64, 200, 18}, {2, 600, 41}} {
		a, b := randDense(rng, dims[0], dims[2]), randDense(rng, dims[1], dims[2])
		got := MulT(a, b)
		want := MulNaive(a, b.T())
		for i, v := range got.Data {
			w := want.Data[i]
			if math.Abs(v-w) > 1e-12*math.Max(1, math.Abs(w)) {
				t.Fatalf("%v element %d: %v vs naive %v", dims, i, v, w)
			}
		}
	}
}

// TestMulTToThenVisitsEachElementOnce checks the epilogue contract: every
// element of dst lies in exactly one segment, already computed when its
// segment is handed over.
func TestMulTToThenVisitsEachElementOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, dims := range [][3]int{{1, 2000, 784}, {60, 300, 784}, {3, 5, 2}, {0, 4, 3}} {
		n, m, k := dims[0], dims[1], dims[2]
		a, b := randDense(rng, n, k), randDense(rng, m, k)
		want := mulTTRef(a, b)
		dst := NewDense(n, m)
		seen := make([]int32, n*m)
		MulTToThen(dst, a, b, func(i, lo int, seg []float64) {
			for j, v := range seg {
				if math.Float64bits(v) != math.Float64bits(want.At(i, lo+j)) {
					t.Errorf("%v: segment (%d,%d) not final: %v", dims, i, lo+j, v)
				}
				seen[i*m+lo+j]++ // segments are disjoint, so no two goroutines share an index
				seg[j] = -v
			}
		})
		for idx, c := range seen {
			if c != 1 {
				t.Fatalf("%v: element %d visited %d times", dims, idx, c)
			}
			if dst.Data[idx] != -want.Data[idx] {
				t.Fatalf("%v: epilogue write to element %d lost", dims, idx)
			}
		}
	}
}

func TestGemmSplit(t *testing.T) {
	for _, c := range [][3]int{{1, 2000, 2}, {600, 600, 2}, {60, 2000, 2}, {7, 10, 2}, {1, 3, 2}, {5, 1, 4}, {300, 7, 2}} {
		n, m, w := c[0], c[1], c[2]
		rb, cb := gemmSplit(n, m, w)
		if rb < 2 || rb%2 != 0 || cb < 4 || cb%4 != 0 {
			t.Fatalf("gemmSplit(%d,%d,%d) = %d,%d: want even rows and 4-aligned columns", n, m, w, rb, cb)
		}
		tasks := ((n + rb - 1) / rb) * ((m + cb - 1) / cb)
		if possible := ((n + 1) / 2) * ((m + 3) / 4); tasks < min(w, possible) {
			t.Fatalf("gemmSplit(%d,%d,%d) = %d,%d: %d tasks leave workers idle", n, m, w, rb, cb, tasks)
		}
	}
}

// BenchmarkMulTTo times a·bᵀ at the training (600x600x784), serving
// (60x2000x784), single-row predict (1x600x784) and low-d (64x200x18)
// shapes, reporting GFLOP/s from 2·m·n·k.
func BenchmarkMulTTo(b *testing.B) {
	for _, dims := range [][3]int{{600, 600, 784}, {60, 2000, 784}, {1, 600, 784}, {64, 200, 18}} {
		n, m, k := dims[0], dims[1], dims[2]
		b.Run(fmt.Sprintf("%dx%dx%d", n, m, k), func(b *testing.B) {
			rng := rand.New(rand.NewSource(15))
			x, y := randDense(rng, n, k), randDense(rng, m, k)
			dst := NewDense(n, m)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MulTTo(dst, x, y)
			}
			b.ReportMetric(2*float64(n*m*k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
