package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"
)

// median returns the median of xs (0 for none) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// mean returns the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs
// and how many samples lie strictly above it.
func percentile(xs []float64, p float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	value = s[rank-1]
	beyond = len(s) - sort.Search(len(s), func(i int) bool { return s[i] > value })
	return value, beyond
}

// msOf converts durations to milliseconds.
func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// latencyMetrics fills p50_ms and p99_ms from per-request latencies in
// completion order. p50 is over all samples. p99 is the median of the p99s
// of consecutive chunks of at least tailChunk requests, each with at least
// ten samples beyond it, so one burst of host noise moves one chunk, not
// the metric; the overall p99 goes into the note.
func latencyMetrics(r *result, what string, lat []time.Duration) {
	ms := msOf(lat)
	p50, b50 := percentile(ms, 50)
	r.e2e["p50_ms"] = metric{Value: p50, Samples: len(ms), Note: samplesBeyond(b50)}
	k := max(1, len(ms)/tailChunk)
	size := len(ms) / k
	var tails []float64
	for i := 0; i < k; i++ {
		v, _ := percentile(ms[i*size:(i+1)*size], 99)
		tails = append(tails, v)
	}
	all, b99 := percentile(ms, 99)
	r.e2e["p99_ms"] = metric{Value: median(tails), Samples: len(ms),
		Note: fmt.Sprintf("median of %d chunk p99s; overall p99 %.4g with %d beyond", k, all, b99)}
	if size/100 < 10 {
		r.note("%s: chunks of %d requests leave fewer than 10 samples beyond p99", what, size)
	}
}

// tailChunk is the smallest chunk p99 is taken over: 1000 requests leave
// ten beyond it.
const tailChunk = 1000

func samplesBeyond(n int) string { return "beyond=" + strconv.Itoa(n) }

// rowsMatch reports whether a served output row equals the reference row
// within predictTol.
func rowsMatch(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > predictTol*math.Max(1, math.Abs(want[i])) {
			return false
		}
	}
	return true
}

// predictTol bounds how far a served row may differ from Model.Predict on
// that row. The parent arithmetic is bit-exact; 1e-9 relative leaves room
// for a change of summation order in the kernel GEMM (about 1e-13 relative
// at d=784) while still catching any wrong result.
const predictTol = 1e-9
