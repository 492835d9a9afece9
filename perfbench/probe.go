package main

import (
	"fmt"
	"runtime"
	"time"

	"eigenpro"
	"eigenpro/internal/kernel"
	"eigenpro/internal/mat"
)

// probe re-times one layer with standalone calls at the shape a workload
// used, and returns the median duration. A first call under 200 ms is a
// discarded warm-up followed by seven timed calls; a slower one counts as
// the first of three.
func probe(tr *tracer, name string, fn func()) (time.Duration, int) {
	runtime.GC()
	first := timedCall(tr, name, fn)
	var samples []float64
	reps := 7
	if first >= 200*time.Millisecond {
		samples = append(samples, float64(first))
		reps = 2
	}
	for i := 0; i < reps; i++ {
		samples = append(samples, float64(timedCall(tr, name, fn)))
	}
	return time.Duration(median(samples)), len(samples)
}

func timedCall(tr *tracer, name string, fn func()) time.Duration {
	sp := tr.begin("probe."+name, 0, 0)
	start := time.Now()
	fn()
	d := time.Since(start)
	tr.end(sp)
	return d
}

// gemmProbes times the kernel matrix and the GEMM inside it for query rows
// a against centers b: kernel.MatrixInto_ms, mat.MulTTo_ms, and the GEMM's
// rate from its 2·m·n·d operation count.
func gemmProbes(tr *tracer, r *result, k eigenpro.Kernel, a, b *eigenpro.Matrix) {
	dst := mat.NewDense(a.Rows, b.Rows)
	km, kn := probe(tr, "kernel.MatrixInto", func() { kernel.MatrixInto(dst, k, a, b) })
	mt, mn := probe(tr, "mat.MulTTo", func() { mat.MulTTo(dst, a, b) })
	shape := fmt.Sprintf("at m=%d n=%d d=%d", a.Rows, b.Rows, a.Cols)
	r.layer["kernel.MatrixInto_ms"] = metric{Value: ms(km), Samples: kn, Note: "probe " + shape}
	r.layer["mat.MulTTo_ms"] = metric{Value: ms(mt), Samples: mn, Note: "probe " + shape}
	ops := 2 * float64(a.Rows) * float64(b.Rows) * float64(a.Cols)
	r.layer["mat.MulTTo_gflops"] = metric{Value: ops / mt.Seconds() / 1e9, Samples: mn, Note: "computed 2*m*n*d over probe time"}
}

// predictProbe times Model.PredictBatch on the first rows of xq.
func predictProbe(tr *tracer, r *result, m *eigenpro.Model, xq *eigenpro.Matrix, rows int) {
	q := eigenpro.NewMatrixData(rows, xq.Cols, xq.Data[:rows*xq.Cols])
	d, n := probe(tr, "core.Model.PredictBatch", func() { m.PredictBatch(q, 0) })
	r.layer["core.Model.PredictBatch_ms"] = metric{Value: ms(d), Samples: n,
		Note: fmt.Sprintf("probe at rows=%d n=%d d=%d", rows, m.X.Rows, m.X.Cols)}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
