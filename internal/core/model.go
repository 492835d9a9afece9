package core

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"eigenpro/internal/kernel"
	"eigenpro/internal/mat"
)

// Model is a trained kernel machine f(x) = Σ_i α_i k(x_i, x) with one
// coefficient row per training sample and one coefficient column per output
// dimension. A Model caches its centers' squared norms, so it must not be
// copied by value; share it by pointer.
type Model struct {
	// Kern is the kernel used at training time. Prediction always uses the
	// original kernel: the EigenPro preconditioner changes the optimization
	// path, not the predictor (paper §1, "mathematically equivalent
	// prediction function").
	Kern kernel.Func
	// X holds the training samples / kernel centers (n x d). A trained
	// model's X is the caller's training matrix, not a copy. Once the model
	// has predicted or trained, X's values must not change in place: the
	// cached ‖x_i‖² would no longer match them. Assigning a new X refreshes
	// the cache.
	X *mat.Dense
	// Alpha holds the model coefficients (n x l).
	Alpha *mat.Dense

	// norms caches ‖x_i‖² of the rows of X; see centerNorms.
	norms atomic.Pointer[centerNorms]
}

// centerNorms pairs the squared row norms of a center matrix with the
// matrix they were computed from.
type centerNorms struct {
	x  *mat.Dense
	sq []float64
}

// centerNorms returns ‖x_i‖² for the rows of X, computed once per X and
// shared by concurrent predictions and the trainer, instead of once per
// kernel-matrix evaluation. Assigning a new X recomputes them; X must not
// be modified in place after the model has predicted.
func (m *Model) centerNorms() []float64 {
	if c := m.norms.Load(); c != nil && c.x == m.X {
		return c.sq
	}
	c := &centerNorms{x: m.X, sq: mat.RowSumSq(m.X)}
	m.norms.Store(c)
	return c.sq
}

// NewModel returns a zero-initialized model over the given centers.
func NewModel(k kernel.Func, x *mat.Dense, labels int) *Model {
	return &Model{Kern: k, X: x, Alpha: mat.NewDense(x.Rows, labels)}
}

// Predict evaluates the model on the rows of xq, returning an
// xq.Rows x l matrix. Large query sets are processed in row blocks to bound
// the size of the intermediate kernel matrix.
func (m *Model) Predict(xq *mat.Dense) *mat.Dense {
	return m.PredictBatch(xq, 0)
}

// defaultPredictChunk bounds the rows of one blocked kernel-GEMM evaluation
// so the intermediate chunk x n kernel matrix stays cache- and
// memory-friendly.
const defaultPredictChunk = 2048

// PredictBatch evaluates the model on the rows of xq in row chunks of the
// given size (<= 0 selects the default), fanning independent chunks out to
// parallel goroutines. Each chunk is one blocked kernel-GEMM evaluation:
// a chunk x n kernel matrix followed by a chunk x l coefficient product.
// An output row's bits depend only on its input row and the model, not on
// the chunk size, the other rows of xq, or how the GEMM split its work.
// This is the serving fast path; Predict delegates to it.
func (m *Model) PredictBatch(xq *mat.Dense, chunk int) *mat.Dense {
	if xq.Cols != m.X.Cols {
		panic(fmt.Sprintf("core: Predict on %d features, model has %d", xq.Cols, m.X.Cols))
	}
	if chunk <= 0 {
		chunk = defaultPredictChunk
	}
	out := mat.NewDense(xq.Rows, m.Alpha.Cols)
	if xq.Rows == 0 {
		return out
	}
	// K·α runs on the a·bᵀ micro-kernel against αᵀ.
	atBuf := getFloats(m.Alpha.Rows * m.Alpha.Cols)
	defer putFloats(atBuf)
	alphaT := mat.NewDenseData(m.Alpha.Cols, m.Alpha.Rows, *atBuf)
	m.Alpha.TTo(alphaT)
	norms := m.centerNorms()
	if xq.Rows <= chunk {
		m.predictChunkInto(out, xq, alphaT, norms)
		return out
	}
	// The kernel and GEMM primitives already fan each chunk out across
	// GOMAXPROCS workers, so chunk-level concurrency only buys overlap
	// of their serial sections. Cap it low: more would oversubscribe the
	// scheduler (up to GOMAXPROCS² runnable goroutines) and multiply peak
	// kernel-matrix memory, which stays at O(cap · chunk · n) floats.
	maxInflight := runtime.GOMAXPROCS(0)
	if maxInflight > 4 {
		maxInflight = 4
	}
	sem := make(chan struct{}, maxInflight)
	var wg sync.WaitGroup
	for lo := 0; lo < xq.Rows; lo += chunk {
		hi := lo + chunk
		if hi > xq.Rows {
			hi = xq.Rows
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(lo, hi int) {
			defer wg.Done()
			defer func() { <-sem }()
			src := mat.NewDenseData(hi-lo, xq.Cols, xq.Data[lo*xq.Cols:hi*xq.Cols])
			dst := mat.NewDenseData(hi-lo, out.Cols, out.Data[lo*out.Cols:hi*out.Cols])
			m.predictChunkInto(dst, src, alphaT, norms)
		}(lo, hi)
	}
	wg.Wait()
	return out
}

// predictChunkInto computes dst = K(block, X) · Alpha for one row block,
// given αᵀ and the center norms, with the kernel matrix in a pooled buffer.
func (m *Model) predictChunkInto(dst, block, alphaT *mat.Dense, norms []float64) {
	buf := getFloats(block.Rows * m.X.Rows)
	defer putFloats(buf)
	kb := mat.NewDenseData(block.Rows, m.X.Rows, *buf)
	kernel.MatrixIntoNorms(kb, m.Kern, block, nil, m.X, norms)
	mat.MulTTo(dst, kb, alphaT)
}

// floatPools holds prediction's per-call buffers (the chunk x n kernel
// matrix and αᵀ), so steady-state serving allocates neither. A buffer of
// capacity c sits in pool bits.Len(c), and a request for n floats looks
// only in pool bits.Len(n), so a single-row prediction never holds a
// buffer sized for a batch. Buffers over maxPooledFloats are left to the
// garbage collector: they come from bulk evaluation, where allocating is
// cheap next to the GEMM, and a pooled one would stay live across the
// next collection and raise the heap goal for the rest of the process.
var floatPools [bits.UintSize + 1]sync.Pool

// maxPooledFloats (2 MiB) covers a serving batch's kernel matrix: 128
// rows against 2000 centers.
const maxPooledFloats = 1 << 18

// getFloats returns a buffer of length n; putFloats hands it back.
func getFloats(n int) *[]float64 {
	if p, ok := floatPools[bits.Len(uint(n))].Get().(*[]float64); ok && cap(*p) >= n {
		*p = (*p)[:n]
		return p
	}
	b := make([]float64, n)
	return &b
}

func putFloats(p *[]float64) {
	if c := cap(*p); c <= maxPooledFloats {
		floatPools[bits.Len(uint(c))].Put(p)
	}
}

// PredictLabels returns the argmax class index of each prediction row.
func (m *Model) PredictLabels(xq *mat.Dense) []int {
	pred := m.Predict(xq)
	out := make([]int, pred.Rows)
	for i := range out {
		out[i] = mat.ArgMaxRow(pred.RowView(i))
	}
	return out
}
