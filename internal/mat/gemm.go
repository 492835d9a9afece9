package mat

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// gemmMinParallelWork is the number of multiply-adds below which matrix
// products run single-threaded; goroutine fan-out costs more than it saves
// on tiny operands.
const gemmMinParallelWork = 1 << 16

// workers returns the degree of parallelism used for matrix products.
var workers = runtime.GOMAXPROCS(0)

// parallelRows splits rows [0,n) into contiguous chunks and runs fn on each
// chunk concurrently. fn receives the half-open row range [lo,hi).
func parallelRows(n int, minWorkPerRow int, fn func(lo, hi int)) {
	w := workers
	if w > n {
		w = n
	}
	if w <= 1 || n*minWorkPerRow < gemmMinParallelWork {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + w - 1) / w
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// Mul returns the matrix product a*b. It panics if a.Cols != b.Rows.
// Work is split across GOMAXPROCS goroutines by row blocks with an ikj
// loop order for cache-friendly access to b.
func Mul(a, b *Dense) *Dense {
	if a.Cols != b.Rows {
		panic(dimErr("Mul", a, b))
	}
	out := NewDense(a.Rows, b.Cols)
	MulTo(out, a, b)
	return out
}

// MulTo computes dst = a*b into preallocated dst (overwritten). dst must be
// a.Rows x b.Cols and must not alias a or b.
func MulTo(dst, a, b *Dense) {
	if a.Cols != b.Rows {
		panic(dimErr("MulTo", a, b))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(dimErr("MulTo dst", dst, b))
	}
	n, k, m := a.Rows, a.Cols, b.Cols
	parallelRows(n, k*m, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.RowView(i)
			drow := dst.RowView(i)
			for j := range drow {
				drow[j] = 0
			}
			for p := 0; p < k; p++ {
				av := arow[p]
				if av == 0 {
					continue
				}
				brow := b.Data[p*m : (p+1)*m]
				for j, bv := range brow {
					drow[j] += av * bv
				}
			}
		}
	})
}

// MulT returns a * bᵀ without materializing the transpose; b is accessed by
// rows, which is the cache-friendly layout for kernel Gram computations
// where both operands store one sample per row.
func MulT(a, b *Dense) *Dense {
	out := NewDense(a.Rows, b.Rows)
	MulTTo(out, a, b)
	return out
}

// MulTTo computes dst = a * bᵀ into preallocated dst (overwritten). dst
// must be a.Rows x b.Rows and must not alias a or b. Every output is
// dotFMA(a_i, b_j), so its bits do not depend on the other rows of a or b,
// on how the work is split, or on whether the assembly micro-kernel ran.
func MulTTo(dst, a, b *Dense) { MulTToThen(dst, a, b, nil) }

// MulTToThen computes dst = a * bᵀ like MulTTo, then calls then(i, lo, seg)
// for each finished segment seg = dst[i, lo:lo+len(seg)] on the goroutine
// that computed it, while the segment is still in cache. The segments are
// disjoint and cover dst, so then may rewrite seg in place without
// synchronization. A nil then is MulTTo.
func MulTToThen(dst, a, b *Dense, then func(i, lo int, seg []float64)) {
	if a.Cols != b.Cols {
		panic(dimErr("MulTTo", a, b))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(dimErr("MulTTo dst", dst, b))
	}
	checkData("MulTTo", a)
	checkData("MulTTo", b)
	checkData("MulTTo dst", dst)
	n, m, k := a.Rows, b.Rows, a.Cols
	if n == 0 || m == 0 {
		return
	}
	slab := gemmSlab(k)
	block := func(i0, i1, j0, j1 int) {
		for is := i0; is < i1; is += slab {
			ih := min(is+slab, i1)
			mulTTBlock(dst, a, b, is, ih, j0, j1)
			if then != nil {
				for i := is; i < ih; i++ {
					then(i, j0, dst.Data[i*m+j0:i*m+j1])
				}
			}
		}
	}
	w := workers
	if w <= 1 || n*m*max(k, 1) < gemmMinParallelWork {
		block(0, n, 0, m)
		return
	}
	rb, cb := gemmSplit(n, m, w)
	rowBlocks, colBlocks := (n+rb-1)/rb, (m+cb-1)/cb
	tasks := rowBlocks * colBlocks
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < min(w, tasks); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := int(next.Add(1)) - 1; t < tasks; t = int(next.Add(1)) - 1 {
				i0, j0 := (t/colBlocks)*rb, (t%colBlocks)*cb
				block(i0, min(i0+rb, n), j0, min(j0+cb, m))
			}
		}()
	}
	wg.Wait()
}

// gemmSlab returns how many rows of a one pass of the micro-kernel keeps
// hot in L2 while groups of four b rows stream through L1: an even count
// whose k-long rows fill about 256 KiB, a conservative share of a per-core
// L2 cache.
func gemmSlab(k int) int {
	const l2Floats = 256 << 10 / 8
	return max(2, l2Floats/max(k, 1)&^1)
}

// gemmSplit cuts an n x m product into tasks of rb rows by cb columns,
// about four per worker so that uneven progress evens out. It splits the
// columns first (cb a multiple of the 4-column tile), so each task reads
// only its share of b and a single-row product still uses every worker,
// and splits the rows (rb even, for the 2-row tile) only when there are
// too few columns.
func gemmSplit(n, m, w int) (rb, cb int) {
	target := 4 * w
	cb = (m + target - 1) / target
	cb = (cb + 3) &^ 3
	colBlocks := (m + cb - 1) / cb
	rb = n + n&1
	if colBlocks < target {
		parts := (target + colBlocks - 1) / colBlocks
		rb = (n + parts - 1) / parts
		rb += rb & 1
	}
	return rb, cb
}

// TMul returns aᵀ * b without materializing the transpose.
func TMul(a, b *Dense) *Dense {
	if a.Rows != b.Rows {
		panic(dimErr("TMul", a, b))
	}
	k, n, m := a.Rows, a.Cols, b.Cols
	out := NewDense(n, m)
	// Accumulate independently per output-row block to stay race-free:
	// out[i,:] = sum_p a[p,i] * b[p,:].
	parallelRows(n, k*m, func(lo, hi int) {
		for p := 0; p < k; p++ {
			arow := a.RowView(p)
			brow := b.RowView(p)
			for i := lo; i < hi; i++ {
				av := arow[i]
				if av == 0 {
					continue
				}
				drow := out.RowView(i)
				for j, bv := range brow {
					drow[j] += av * bv
				}
			}
		}
	})
	return out
}

// MulVec returns the matrix-vector product a*x as a new slice.
func MulVec(a *Dense, x []float64) []float64 {
	if a.Cols != len(x) {
		panic(dimErr("MulVec", a, &Dense{Rows: len(x), Cols: 1}))
	}
	out := make([]float64, a.Rows)
	parallelRows(a.Rows, a.Cols, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = Dot(a.RowView(i), x)
		}
	})
	return out
}

// TMulVec returns aᵀ*x as a new slice (length a.Cols).
func TMulVec(a *Dense, x []float64) []float64 {
	if a.Rows != len(x) {
		panic(dimErr("TMulVec", a, &Dense{Rows: len(x), Cols: 1}))
	}
	out := make([]float64, a.Cols)
	for i := 0; i < a.Rows; i++ {
		Axpy(x[i], a.RowView(i), out)
	}
	return out
}

// MulNaive is a straightforward triple-loop reference product used by tests
// to validate the parallel implementations.
func MulNaive(a, b *Dense) *Dense {
	if a.Cols != b.Rows {
		panic(dimErr("MulNaive", a, b))
	}
	out := NewDense(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			s := 0.0
			for p := 0; p < a.Cols; p++ {
				s += a.At(i, p) * b.At(p, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}
