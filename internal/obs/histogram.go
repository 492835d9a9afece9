package obs

import (
	"math"
	"strconv"
	"sync/atomic"
	"time"
)

// Histogram counts observations into fixed buckets (upper-bound
// inclusive) plus an implicit +Inf overflow bucket, and tracks the sum
// and count for mean derivation. All operations are lock-free: Observe is
// two atomic adds, so instrumenting a hot path cannot contend with
// exposition.
type Histogram struct {
	bounds []float64       // finite upper bounds, ascending
	counts []atomic.Uint64 // len(bounds)+1; last is overflow
	// exemplars holds the most recent trace-linked observation per bucket
	// (nil pointers until ObserveEx lands one); rendered only in the
	// OpenMetrics exposition.
	exemplars []atomic.Pointer[Exemplar]
	sum       atomicFloat
	count     atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{
		bounds:    bounds,
		counts:    make([]atomic.Uint64, len(bounds)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.counts[h.bucket(v)].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// ObserveEx records one value and, when traceID is non-empty, attaches it
// to the value's bucket as an OpenMetrics exemplar — the link that lets a
// latency bucket answer "show me one request that landed here". The store is
// a single atomic pointer swap; the newest exemplar per bucket wins.
func (h *Histogram) ObserveEx(v float64, traceID string) {
	i := h.bucket(v)
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
	if traceID != "" {
		h.exemplars[i].Store(&Exemplar{Value: v, TraceID: traceID, Time: time.Now()})
	}
}

// bucket returns the index of the first bucket whose bound is >= v
// (binary search), or the overflow index.
func (h *Histogram) bucket(v float64) int {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// Mean returns Sum/Count, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return h.sum.Load() / float64(n)
}

// Quantile estimates the q-quantile as the upper bound of the bucket
// holding the nearest-rank observation (rank = ceil(q·n), so the p99 of
// 10 samples is the 10th, not the 9th). With no observations it returns
// 0; a rank falling in the overflow bucket returns the largest finite
// bound (the estimate saturates rather than reporting +Inf); a histogram
// with no finite buckets returns NaN for any observation.
func (h *Histogram) Quantile(q float64) float64 {
	// Snapshot the buckets once; concurrent Observes may make the view
	// slightly torn, which only perturbs the estimate by a sample.
	var total uint64
	counts := make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= rank {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			// Overflow bucket: saturate at the largest finite bound.
			if len(h.bounds) > 0 {
				return h.bounds[len(h.bounds)-1]
			}
			return math.NaN()
		}
	}
	// Unreachable: cum == total >= rank by the loop's end.
	return math.NaN()
}

// HistogramSnapshot is a point-in-time copy of a histogram's buckets.
type HistogramSnapshot struct {
	// Bounds are the finite bucket upper bounds.
	Bounds []float64
	// Counts has len(Bounds)+1 entries; the last is the overflow bucket.
	// Counts are per-bucket (not cumulative).
	Counts []uint64
	// Sum and Count aggregate all observations.
	Sum   float64
	Count uint64
}

// Snapshot copies the current bucket counts.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Sum:    h.sum.Load(),
		Count:  h.count.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// appendTo renders the histogram in exposition format: cumulative bucket
// lines, then _sum and _count, each starting with the series' formatted
// prefix. In OpenMetrics mode each bucket line additionally carries its
// exemplar.
func (h *Histogram) appendTo(b []byte, s *series, om bool) []byte {
	sum, count := h.sum.Load(), h.count.Load()
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		b = append(b, s.bucketLines[i]...)
		b = strconv.AppendUint(b, cum, 10)
		if om {
			if ex := h.exemplars[i].Load(); ex != nil {
				b = ex.appendTo(b)
			}
		}
		b = append(b, '\n')
	}
	return appendSumCount(b, s, sum, count)
}

// appendSnapshot renders a func-backed histogram's snapshot like appendTo,
// without exemplars. Its buckets can change between scrapes, so their line
// prefixes are formatted here.
func appendSnapshot(b []byte, name string, s *series, snap HistogramSnapshot) []byte {
	var cum uint64
	var le [32]byte
	for i := 0; i <= len(snap.Bounds) && i < len(snap.Counts); i++ {
		cum += snap.Counts[i]
		v := math.Inf(1)
		if i < len(snap.Bounds) {
			v = snap.Bounds[i]
		}
		b = appendBucketPrefix(b, name, s.key, appendFloat(le[:0], v))
		b = strconv.AppendUint(b, cum, 10)
		b = append(b, '\n')
	}
	return appendSumCount(b, s, snap.Sum, snap.Count)
}

// appendBucketPrefix appends the start of a bucket line, the series'
// labels with le last: `name_bucket{<labels>,le="<le>"} `.
func appendBucketPrefix(b []byte, name, key string, le []byte) []byte {
	b = append(b, name...)
	b = append(b, "_bucket{"...)
	if key != "" {
		b = append(b, key[1:len(key)-1]...)
		b = append(b, ',')
	}
	b = append(b, `le="`...)
	b = append(b, le...)
	return append(b, `"} `...)
}

// appendSumCount appends a histogram's _sum and _count lines.
func appendSumCount(b []byte, s *series, sum float64, count uint64) []byte {
	b = append(b, s.sumLine...)
	b = appendFloat(b, sum)
	b = append(b, '\n')
	b = append(b, s.countLine...)
	b = strconv.AppendUint(b, count, 10)
	return append(b, '\n')
}
