package serve

import (
	"fmt"
	"math"
	"strings"
	"time"

	"eigenpro/internal/device"
	"eigenpro/internal/obs"
)

// Serving telemetry series names. One serving Server owns these series in
// its registry; the device CounterFuncs and utilization GaugeFunc read the
// first server's clock, so share a registry across servers only when they
// share a device budget.
const (
	MetricServeRequests   = "eigenpro_serve_requests_total"
	MetricServeRejected   = "eigenpro_serve_rejected_total"
	MetricServeExpired    = "eigenpro_serve_expired_total"
	MetricServeAbandoned  = "eigenpro_serve_abandoned_total"
	MetricServeShed       = "eigenpro_serve_shed_total"
	MetricServeBatches    = "eigenpro_serve_batches_total"
	MetricServeOccupancy  = "eigenpro_serve_batch_occupancy"
	MetricServeLatency    = "eigenpro_serve_latency_seconds"
	MetricServeDeviceBusy = "eigenpro_serve_device_busy_seconds_total"
	MetricServeDeviceOps  = "eigenpro_serve_device_ops_total"
	MetricServeDeviceUtil = "eigenpro_serve_device_utilization"
	MetricServeUptime     = "eigenpro_serve_uptime_seconds"
	MetricServeModels     = "eigenpro_serve_models"
	MetricServeQueueDepth = "eigenpro_serve_queue_depth"
	MetricServeDraining   = "eigenpro_serve_draining"
)

// latBucket0 is the upper bound of the first latency bucket; bucket i
// covers (latBucket0·2^(i-1), latBucket0·2^i].
const (
	latBucket0   = 50 * time.Microsecond
	latBucketCnt = 26 // top bucket ≈ 28 minutes; slower goes in the overflow
	occBucketCnt = 21 // occupancy up to 2^20 per micro-batch
)

// latBoundsSec are the latency histogram bucket upper bounds in seconds.
var (
	latBoundsSec []float64
	occBounds    []float64
)

func init() {
	latBoundsSec = make([]float64, latBucketCnt)
	b := latBucket0
	for i := 0; i < latBucketCnt; i++ {
		latBoundsSec[i] = b.Seconds()
		b *= 2
	}
	occBounds = make([]float64, occBucketCnt)
	for i := range occBounds {
		occBounds[i] = float64(int64(1) << i)
	}
}

// statsCore accumulates the serving counters as lock-free obs metrics: the
// hot path (recordDone, recordBatch, charge) performs only atomic adds, so
// a metrics scrape or a Stats snapshot can never contend with it.
type statsCore struct {
	start time.Time
	clock *device.Clock

	requests  *obs.Counter
	rejected  *obs.Counter
	expired   *obs.Counter
	abandoned *obs.Counter
	shed      *obs.Counter
	batches   *obs.Counter
	occ       *obs.Histogram
	lat       *obs.Histogram
}

func newStatsCore(dev *device.Device, reg *obs.Registry) *statsCore {
	s := &statsCore{
		start: time.Now(),
		clock: device.NewClock(dev),

		requests: reg.Counter(MetricServeRequests, "Completed predictions."),
		rejected: reg.Counter(MetricServeRejected, "Requests rejected by admission control (queue full)."),
		expired:  reg.Counter(MetricServeExpired, "Requests that expired while queued."),
		abandoned: reg.Counter(MetricServeAbandoned,
			"Requests abandoned by their caller (context canceled) before delivery."),
		shed: reg.Counter(MetricServeShed,
			"Requests shed at enqueue because the estimated queue wait exceeded their deadline."),
		batches: reg.Counter(MetricServeBatches, "Dispatched micro-batches."),
		occ: reg.Histogram(MetricServeOccupancy,
			"Requests carried per dispatched micro-batch.", occBounds),
		lat: reg.Histogram(MetricServeLatency,
			"Enqueue-to-completion request latency.", latBoundsSec),
	}
	reg.CounterFunc(MetricServeDeviceBusy,
		"Simulated device time charged by serving.",
		func() float64 { return s.clock.Elapsed().Seconds() })
	reg.CounterFunc(MetricServeDeviceOps,
		"Simulated device operations charged by serving.",
		func() float64 { return s.clock.Ops() })
	reg.GaugeFunc(MetricServeDeviceUtil,
		"Simulated-device busy seconds per wall second since start.",
		func() float64 {
			if up := time.Since(s.start).Seconds(); up > 0 {
				return s.clock.Elapsed().Seconds() / up
			}
			return 0
		})
	reg.GaugeFunc(MetricServeUptime, "Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })
	return s
}

func (s *statsCore) recordRejected()  { s.rejected.Inc() }
func (s *statsCore) recordExpired()   { s.expired.Inc() }
func (s *statsCore) recordAbandoned() { s.abandoned.Inc() }
func (s *statsCore) recordShed()      { s.shed.Inc() }

// charge accounts one micro-batch's operations on the simulated device;
// the clock is internally synchronized.
func (s *statsCore) charge(ops float64) time.Duration { return s.clock.Charge(ops) }

// recordBatch records a dispatched micro-batch of the given occupancy.
func (s *statsCore) recordBatch(occ int) {
	s.batches.Inc()
	s.occ.Observe(float64(occ))
}

// recordDone records one completed request and its enqueue-to-completion
// latency. The request's traceID lands on the latency bucket as an
// OpenMetrics exemplar, linking the histogram to the request's wide event.
func (s *statsCore) recordDone(lat time.Duration, traceID string) {
	s.requests.Inc()
	s.lat.ObserveEx(lat.Seconds(), traceID)
}

// OccupancyBucket is one bar of the batch-occupancy histogram: Count
// micro-batches carried between Lo and Hi requests inclusive.
type OccupancyBucket struct {
	Lo, Hi int
	Count  int64
}

// Stats is a point-in-time snapshot of the serving counters.
type Stats struct {
	// Uptime is the time since the server started.
	Uptime time.Duration
	// Requests counts delivered predictions; Rejected counts queue-full
	// admissions; Expired counts requests that timed out while queued;
	// Abandoned counts requests whose caller returned (context canceled,
	// server closing) before delivery; Shed counts requests rejected by
	// deadline-aware admission control (Config.Shed).
	Requests, Rejected, Expired, Abandoned, Shed int64
	// Batches counts dispatched micro-batches; MeanOccupancy is
	// Requests-completed-or-failed-in-batch per batch.
	Batches       int64
	MeanOccupancy float64
	// P50 and P99 are wall-clock enqueue-to-completion latency quantiles
	// (upper bucket bounds of a log-spaced histogram).
	P50, P99 time.Duration
	// Throughput is completed requests per wall second since start.
	Throughput float64
	// SimTime and SimOps account the simulated device; SimThroughput is
	// completed requests per simulated device second — the number the
	// batched-vs-unbatched comparison is about.
	SimTime       time.Duration
	SimOps        float64
	SimThroughput float64
	// Occupancy is the non-empty part of the batch-size histogram.
	Occupancy []OccupancyBucket
}

// snapshot derives a Stats from the metrics. It takes no lock: every read
// is an atomic load, so snapshotting (or scraping /metrics, which reads
// the same series) cannot stall the request path.
func (s *statsCore) snapshot() Stats {
	st := Stats{
		Uptime:    time.Since(s.start),
		Requests:  int64(s.requests.Value()),
		Rejected:  int64(s.rejected.Value()),
		Expired:   int64(s.expired.Value()),
		Abandoned: int64(s.abandoned.Value()),
		Shed:      int64(s.shed.Value()),
		Batches:   int64(s.batches.Value()),
		SimTime:   s.clock.Elapsed(),
		SimOps:    s.clock.Ops(),
	}
	if occ := s.occ.Snapshot(); occ.Count > 0 {
		st.MeanOccupancy = occ.Sum / float64(occ.Count)
		lo := 1
		for i, bound := range occ.Bounds {
			hi := int(bound)
			c := occ.Counts[i]
			if i == len(occ.Bounds)-1 {
				// Fold the overflow bucket into the last bar.
				c += occ.Counts[len(occ.Counts)-1]
			}
			if c > 0 {
				st.Occupancy = append(st.Occupancy, OccupancyBucket{Lo: lo, Hi: hi, Count: int64(c)})
			}
			lo = hi + 1
		}
	}
	if up := st.Uptime.Seconds(); up > 0 {
		st.Throughput = float64(st.Requests) / up
	}
	if sim := st.SimTime.Seconds(); sim > 0 {
		st.SimThroughput = float64(st.Requests) / sim
	}
	// Quantile returns a bucket bound in seconds; rounding to the
	// nanosecond recovers each bound exactly, since every 50µs·2^i is a
	// whole number of nanoseconds.
	st.P50 = time.Duration(math.Round(s.lat.Quantile(0.50) * 1e9))
	st.P99 = time.Duration(math.Round(s.lat.Quantile(0.99) * 1e9))
	return st
}

// String renders the snapshot as an aligned text table.
func (st Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "serving stats (uptime %v)\n", st.Uptime.Round(time.Millisecond))
	fmt.Fprintf(&b, "  requests    %-10d rejected %-8d expired %d\n", st.Requests, st.Rejected, st.Expired)
	fmt.Fprintf(&b, "  abandoned   %-10d shed     %d\n", st.Abandoned, st.Shed)
	fmt.Fprintf(&b, "  batches     %-10d mean occupancy %.1f\n", st.Batches, st.MeanOccupancy)
	fmt.Fprintf(&b, "  latency     p50 %v  p99 %v\n", st.P50, st.P99)
	fmt.Fprintf(&b, "  throughput  %.0f req/s wall, %.0f req/s simulated device (%v device time)\n",
		st.Throughput, st.SimThroughput, st.SimTime.Round(time.Microsecond))
	if len(st.Occupancy) > 0 {
		b.WriteString("  batch occupancy:\n")
		for _, o := range st.Occupancy {
			if o.Lo == o.Hi {
				fmt.Fprintf(&b, "    %6d      %d\n", o.Hi, o.Count)
			} else {
				fmt.Fprintf(&b, "    %3d-%-6d  %d\n", o.Lo, o.Hi, o.Count)
			}
		}
	}
	return b.String()
}
