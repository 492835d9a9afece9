// Package serve is the batched inference serving subsystem: a concurrent
// model server whose request path coalesces individual Predict calls into
// micro-batches sized to the device model's maximum useful batch m_max.
//
// The paper's central observation — that a parallel device retires a whole
// wave of work in constant time, so batches below m_max waste the hardware —
// applies to inference exactly as it does to training. A lone prediction
// against an n-center model performs n·(d+l) multiply-adds, typically a
// small fraction of one execution wave; serving requests one at a time pays
// a full launch overhead plus wave per request. This package therefore
// queues requests per model and runs them as one kernel-GEMM evaluation of
// up to m_max rows (from the device cost accounting core.SelectParams uses
// for training). Dispatch follows worker availability, not a clock: an idle
// worker takes what is queued at once, and while every worker is busy (up
// to the moment the callers of its last batch have collected their results)
// the next batch fills toward m_max, so batches are full when work waits.
//
// Components:
//
//   - batcher: per-model bounded queue, work-conserving m_max-sized
//     coalescing (batcher.go)
//   - worker pool: executes coalesced batches with Model.PredictBatch and
//     charges the simulated device clock (serve.go)
//   - Registry: named, hot-swappable models (registry.go)
//   - admission control: queue-full rejection and per-request deadlines
//   - telemetry: request, batch-occupancy, latency and simulated-device
//     series in the metrics registry, exposed on GET /metrics and read
//     in-process by Server.Stats (stats.go)
//   - HTTP JSON endpoint (http.go)
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"eigenpro/internal/core"
	"eigenpro/internal/device"
	"eigenpro/internal/mat"
	"eigenpro/internal/obs"
	"eigenpro/internal/obs/slo"
)

// Errors returned by the request path.
var (
	// ErrOverloaded reports that the model's request queue is full; the
	// caller should shed load or retry with backoff.
	ErrOverloaded = errors.New("serve: queue full, request rejected")
	// ErrClosed reports a Predict against a closed server.
	ErrClosed = errors.New("serve: server closed")
	// ErrUnknownModel reports a request for a model name that was never
	// registered.
	ErrUnknownModel = errors.New("serve: unknown model")
	// ErrDeadlineExceeded reports that a request expired while queued,
	// before any device work was spent on it.
	ErrDeadlineExceeded = errors.New("serve: deadline exceeded in queue")
	// ErrShed reports deadline-aware admission control (Config.Shed)
	// rejecting a request at enqueue because its deadline cannot survive
	// the estimated queue wait — shedding doomed work before it occupies
	// queue space.
	ErrShed = errors.New("serve: predicted queue wait exceeds deadline, request shed")
	// ErrDraining reports a Predict against a draining server: admission is
	// closed for graceful shutdown while admitted requests flush. Load
	// balancers see the same condition as a 503 on GET /readyz.
	ErrDraining = errors.New("serve: draining, admission closed")
)

// Config configures a Server; zero values select the defaults.
type Config struct {
	// Device is the device model whose cost accounting sizes micro-batches;
	// nil selects device.SimTitanXp.
	Device *device.Device
	// MaxBatch overrides the per-model m_max = Device.ServeBatch when > 0.
	MaxBatch int
	// QueueDepth bounds each model's request queue (admission control);
	// <= 0 selects DefaultQueueDepth.
	QueueDepth int
	// Workers is the size of the execution pool; <= 0 selects
	// GOMAXPROCS.
	Workers int
	// Timeout is the default per-request deadline applied when the caller's
	// context has none. 0 selects DefaultTimeout; < 0 disables the default.
	Timeout time.Duration
	// Shed enables deadline-aware admission control: a request whose
	// deadline cannot survive the estimated queue wait (the m_max waves
	// ahead of it × an EWMA of recent batch service time) is rejected with
	// ErrShed at enqueue instead of queueing work that is doomed to expire.
	Shed bool
	// Metrics is the registry the serving telemetry registers into; nil
	// creates a private registry (readable via Server.Metrics). Pass a
	// shared registry to expose serving, jobs, and trainer series from one
	// /metrics endpoint.
	Metrics *obs.Registry
	// Events receives one wide obs.Event per request outcome — ok,
	// rejected, shed, expired, abandoned — carrying the request's model,
	// queue wait, device time, micro-batch id and occupancy, and trace id.
	// nil disables event logging entirely (unlike Metrics, which defaults
	// to a private registry): the event ring is an opt-in debugging
	// surface, and the zero Config keeps the hot path at its minimum cost.
	// Readable via Server.Events.
	Events *obs.EventLog
	// SLO is the burn-rate evaluator judging this server's telemetry. The
	// server itself never calls into it (the evaluator polls Metrics on its
	// own cadence — the hot path stays untouched); carrying it here lets
	// NewHandler mount GET /debug/slo and degrade /readyz while an
	// objective is paging. nil disables both.
	SLO *slo.Evaluator
	// Flight is the breach-triggered flight recorder whose snapshots
	// NewHandler serves at GET /debug/flight; nil disables the endpoint.
	// Arm it by passing the same recorder as the evaluator's
	// slo.Config.Flight.
	Flight *obs.FlightRecorder
}

// Defaults for Config zero values.
const (
	DefaultQueueDepth = 1024
	DefaultTimeout    = 2 * time.Second
)

// withDefaults resolves zero values.
func (c Config) withDefaults() Config {
	if c.Device == nil {
		c.Device = device.SimTitanXp()
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	switch {
	case c.Timeout == 0:
		c.Timeout = DefaultTimeout
	case c.Timeout < 0:
		c.Timeout = 0
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	return c
}

// Server coalesces concurrent Predict calls into device-saturating
// micro-batches over a registry of named models.
type Server struct {
	cfg      Config
	reg      *Registry
	work     chan *batch
	stats    *statsCore
	batchSeq atomic.Uint64 // dispatched micro-batch ids for wide events

	done     chan struct{}
	closed   atomic.Bool
	draining atomic.Bool    // admission closed for graceful shutdown
	pending  atomic.Int64   // requests admitted to a queue and not yet completed
	collWG   sync.WaitGroup // batcher goroutines, one per model entry
	workWG   sync.WaitGroup // worker pool
	closeMu  sync.Mutex
}

// New starts a server with the given configuration. Close releases its
// goroutines.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		work:  make(chan *batch), // unbuffered: see dispatch
		stats: newStatsCore(cfg.Device, cfg.Metrics),
		done:  make(chan struct{}),
	}
	s.reg = newRegistry(s)
	cfg.Metrics.GaugeFunc(MetricServeModels, "Registered model count.",
		func() float64 { return float64(len(s.reg.names())) })
	cfg.Metrics.GaugeFunc(MetricServeDraining, "1 while admission is closed for graceful shutdown.",
		func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})
	s.workWG.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go func() {
			defer s.workWG.Done()
			for b := range s.work {
				s.execute(b)
			}
		}()
	}
	return s
}

// Register installs (or hot-swaps) the model under the given name. The
// micro-batch size for the name is recomputed from the device model and the
// new model's shape; requests already coalesced against the previous model
// complete against it.
func (s *Server) Register(name string, m *core.Model) error {
	// Serialized with Close so a first-time registration cannot add to
	// collWG concurrently with Close's Wait.
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	if s.closed.Load() {
		return ErrClosed
	}
	if m == nil || m.X == nil || m.Alpha == nil {
		return fmt.Errorf("serve: Register %q: nil model", name)
	}
	return s.reg.register(name, m)
}

// Model returns the currently registered model for name.
func (s *Server) Model(name string) (*core.Model, bool) { return s.reg.model(name) }

// Models returns the registered model names, sorted.
func (s *Server) Models() []string { return s.reg.names() }

// MaxBatch returns the micro-batch size m_max the server uses for name:
// Config.MaxBatch when set, else the device's ServeBatch for the model's
// shape.
func (s *Server) MaxBatch(name string) (int, bool) {
	e, ok := s.reg.entry(name)
	if !ok {
		return 0, false
	}
	return int(e.maxBatch.Load()), true
}

// maxBatchFor returns the micro-batch size used for a model of the given
// shape.
func (s *Server) maxBatchFor(m *core.Model) int {
	if s.cfg.MaxBatch > 0 {
		return s.cfg.MaxBatch
	}
	return s.cfg.Device.ServeBatch(m.X.Rows, m.X.Cols, m.Alpha.Cols)
}

// Predict routes one feature vector through the model's batcher and waits
// for the micro-batch carrying it to execute. It returns the prediction row
// (length = the model's label dimension), or ErrOverloaded / ErrShed /
// ErrUnknownModel / ErrDeadlineExceeded / the context's error. A caller
// that returns early (context canceled, server closing) abandons its
// request: the batcher and workers drop abandoned requests before any
// device work is spent on them. The request's wide event and latency
// exemplar carry the trace ID in ctx (obs.WithTraceID), or a fresh one.
func (s *Server) Predict(ctx context.Context, name string, x []float64) ([]float64, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	if s.draining.Load() {
		s.stats.recordRejected()
		if s.cfg.Events != nil {
			s.cfg.Events.Emit(obs.Event{
				Level:   obs.LevelWarn,
				Kind:    obs.KindServeRequest,
				Model:   name,
				Outcome: "draining",
				Rows:    1,
				Err:     ErrDraining.Error(),
			})
		}
		return nil, ErrDraining
	}
	e, ok := s.reg.entry(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	if m := e.model.Load(); len(x) != m.X.Cols {
		return nil, fmt.Errorf("serve: model %q wants %d features, got %d", name, m.X.Cols, len(x))
	}
	// A NaN or Inf feature, or a sum of squares past the float64 range,
	// turns every kernel distance into NaN.
	if ss := mat.Dot(x, x); math.IsNaN(ss) || math.IsInf(ss, 0) {
		return nil, fmt.Errorf("serve: model %q: features must be finite with a finite sum of squares, got %v", name, ss)
	}
	id := obs.TraceIDFrom(ctx)
	if id == "" {
		id = obs.NewTraceID()
	}
	req := &request{x: x, ctx: ctx, id: id, enq: time.Now(), done: make(chan struct{})}
	if d, ok := ctx.Deadline(); ok {
		req.deadline = d
	} else if s.cfg.Timeout > 0 {
		req.deadline = req.enq.Add(s.cfg.Timeout)
	}
	if s.cfg.Shed && !req.deadline.IsZero() {
		if wait := e.estimatedWait(); wait > 0 && req.enq.Add(wait).After(req.deadline) {
			s.stats.recordShed()
			err := fmt.Errorf("%w (estimated wait %v)", ErrShed, wait.Round(time.Millisecond))
			s.requestEvent(obs.LevelWarn, "shed", e.name, req, err)
			return nil, err
		}
	}
	// The pending count is raised before the enqueue attempt so Drain can
	// never observe zero while an admitted request is still in flight; a
	// rejected request gives its increment straight back.
	req.pending = &s.pending
	s.pending.Add(1)
	select {
	case e.queue <- req:
	default:
		s.pending.Add(-1)
		req.pending = nil
		s.stats.recordRejected()
		s.requestEvent(obs.LevelWarn, "rejected", e.name, req, ErrOverloaded)
		return nil, ErrOverloaded
	}
	defer req.leave()
	select {
	case <-req.done:
		return req.out, req.err
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-s.done:
		return nil, ErrClosed
	}
}

// PredictLabel is Predict followed by argmax over the output row.
func (s *Server) PredictLabel(ctx context.Context, name string, x []float64) (int, error) {
	out, err := s.Predict(ctx, name, x)
	if err != nil {
		return 0, err
	}
	return mat.ArgMaxRow(out), nil
}

// Stats reads the serving series that GET /metrics exposes.
func (s *Server) Stats() Stats { return s.stats.snapshot() }

// Metrics returns the registry the serving telemetry registers into.
func (s *Server) Metrics() *obs.Registry { return s.cfg.Metrics }

// Events returns the wide-event log, or nil when Config.Events was nil
// (event logging disabled).
func (s *Server) Events() *obs.EventLog { return s.cfg.Events }

// SLO returns the burn-rate evaluator, or nil when Config.SLO was nil
// (nil is valid everywhere it is passed).
func (s *Server) SLO() *slo.Evaluator { return s.cfg.SLO }

// Flight returns the flight recorder, or nil when Config.Flight was nil.
func (s *Server) Flight() *obs.FlightRecorder { return s.cfg.Flight }

// requestEvent emits one serve.request wide event for a request that
// terminated before any device work — rejected, shed, expired, or
// abandoned in the queue (no-op with a nil Config.Events). QueueWait is
// enqueue → now; there is no batch or device time to report.
func (s *Server) requestEvent(level obs.Level, outcome, model string, r *request, err error) {
	if s.cfg.Events == nil {
		return
	}
	ev := obs.Event{
		Level:     level,
		Kind:      obs.KindServeRequest,
		Model:     model,
		Outcome:   outcome,
		TraceID:   r.id,
		Rows:      1,
		QueueWait: time.Since(r.enq),
	}
	if err != nil {
		ev.Err = err.Error()
	}
	s.cfg.Events.Emit(ev)
}

// batchEvent emits one serve.request wide event for a request that rode a
// dispatched micro-batch: ok, or abandoned mid-flight (no-op with a nil
// Config.Events). QueueWait is enqueue → device dispatch; DeviceTime,
// BatchID, and Occupancy describe the wave that carried it.
func (s *Server) batchEvent(level obs.Level, outcome, model string, r *request,
	batchID uint64, occupancy int, execStart time.Time, deviceTime time.Duration, err error) {
	if s.cfg.Events == nil {
		return
	}
	ev := obs.Event{
		Level:      level,
		Kind:       obs.KindServeRequest,
		Model:      model,
		Outcome:    outcome,
		TraceID:    r.id,
		Rows:       1,
		QueueWait:  execStart.Sub(r.enq),
		DeviceTime: deviceTime,
		BatchID:    batchID,
		Occupancy:  occupancy,
	}
	if err != nil {
		ev.Err = err.Error()
	}
	s.cfg.Events.Emit(ev)
}

// Draining reports whether admission is closed for graceful shutdown.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain gracefully quiesces the server for shutdown: admission closes
// (Predict returns ErrDraining, /readyz turns 503 so load balancers stop
// routing here), then Drain waits until every already-admitted request has
// completed — flushed through the batcher and worker pool as usual — or the
// timeout lapses. It returns nil once the server is idle, or an error
// carrying the number of requests still in flight at the deadline. Drain
// does not stop the serving goroutines; call Close afterwards. Idempotent
// and safe to call concurrently; callers after the first wait alongside it.
func (s *Server) Drain(timeout time.Duration) error {
	begin := time.Now()
	if s.draining.CompareAndSwap(false, true) && s.cfg.Events != nil {
		s.cfg.Events.Emit(obs.Event{
			Level:   obs.LevelWarn,
			Kind:    obs.KindServerDrain,
			Outcome: "begin",
			Rows:    int(s.pending.Load()),
		})
	}
	deadline := begin.Add(timeout)
	for {
		n := s.pending.Load()
		if n <= 0 {
			s.drainEvent("drained", 0, begin)
			return nil
		}
		if !time.Now().Before(deadline) {
			s.drainEvent("timeout", int(n), begin)
			return fmt.Errorf("serve: drain timeout after %v with %d requests in flight", timeout, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// drainEvent emits the server.draining completion event (no-op with a nil
// Config.Events).
func (s *Server) drainEvent(outcome string, inflight int, begin time.Time) {
	if s.cfg.Events == nil {
		return
	}
	level := obs.LevelInfo
	if outcome != "drained" {
		level = obs.LevelError
	}
	s.cfg.Events.Emit(obs.Event{
		Level:     level,
		Kind:      obs.KindServerDrain,
		Outcome:   outcome,
		Rows:      inflight,
		QueueWait: time.Since(begin),
	})
}

// Close stops the batchers and workers. Queued requests fail with
// ErrClosed; in-flight batches complete. Close is idempotent.
func (s *Server) Close() {
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	close(s.done)
	s.collWG.Wait()
	close(s.work)
	s.workWG.Wait()
}

// reap completes a request that no longer needs device work — its deadline
// lapsed while queued, or its caller abandoned it (context canceled, server
// closing) — and reports whether it did. Counting happens before the
// completion: a waiter that wakes on done must already see itself in the
// stats snapshot. The entry names the model in the request's wide event.
func (s *Server) reap(e *entry, r *request, now time.Time) bool {
	switch {
	case !r.deadline.IsZero() && now.After(r.deadline):
		s.stats.recordExpired()
		s.requestEvent(obs.LevelWarn, "expired", e.name, r, ErrDeadlineExceeded)
		r.fail(ErrDeadlineExceeded)
	case r.isAbandoned():
		s.stats.recordAbandoned()
		s.requestEvent(obs.LevelWarn, "abandoned", e.name, r, context.Canceled)
		r.fail(context.Canceled)
	default:
		return false
	}
	return true
}

// execute runs one coalesced micro-batch on the worker pool: drop expired,
// abandoned, or mismatched requests, stack the survivors into one GEMM
// operand, predict, charge the simulated device, and complete the waiters.
func (s *Server) execute(b *batch) {
	m := b.entry.model.Load()
	now := time.Now()
	live := b.reqs[:0]
	for _, r := range b.reqs {
		switch {
		case s.reap(b.entry, r, now):
			// Expired or abandoned between gather and execution: no device
			// work, no latency sample.
		case len(r.x) != m.X.Cols:
			// The model was hot-swapped to a different shape between
			// enqueue and execution.
			r.fail(fmt.Errorf("serve: model %q wants %d features, got %d", b.entry.name, m.X.Cols, len(r.x)))
		default:
			live = append(live, r)
		}
	}
	if len(live) == 0 {
		return
	}
	rows := make([][]float64, len(live))
	for i, r := range live {
		rows[i] = r.x
	}
	batchID := s.batchSeq.Add(1)
	execStart := time.Now()
	xq := mat.StackRows(rows, m.X.Cols)
	out := m.PredictBatch(xq, 0)
	s.stats.charge(core.PredictOps(m.X.Rows, len(live), m.X.Cols, m.Alpha.Cols))
	// Count everything before completing any request: a waiter that wakes
	// on done must already see itself and its batch in the stats snapshot.
	done := time.Now()
	deviceTime := done.Sub(execStart)
	b.entry.observeService(deviceTime)
	for _, r := range live {
		if r.isAbandoned() {
			// Canceled while the batch was on the device: that work is
			// already spent, but the latency quantiles must carry only
			// delivered responses.
			s.stats.recordAbandoned()
			s.batchEvent(obs.LevelWarn, "abandoned", b.entry.name, r, batchID, len(live), execStart, deviceTime, context.Canceled)
			continue
		}
		s.stats.recordDone(done.Sub(r.enq), r.id)
		s.batchEvent(obs.LevelInfo, "ok", b.entry.name, r, batchID, len(live), execStart, deviceTime, nil)
	}
	s.stats.recordBatch(len(live))
	deliver(live, out)
}

// deliver hands each live request its row and waits until every caller has
// collected it; only then is the worker free. Callers and workers share the
// host's cores: a worker that took the next batch at once would find only
// the few callers that had run since, and a closed loop of callers would
// split into a batch of one and a batch of the rest that never merge. While
// the worker waits, its callers resubmit into the batch the batcher holds.
func deliver(live []*request, out *mat.Dense) {
	var collect sync.WaitGroup
	collect.Add(len(live))
	for i, r := range live {
		// Copy the row: handing out a RowView would alias the whole batch
		// matrix across callers (and let one caller's append clobber
		// another's result).
		r.out = append([]float64(nil), out.RowView(i)...)
		r.collect = &collect
		if !r.state.CompareAndSwap(reqQueued, reqDelivered) {
			collect.Done() // the caller has already left
		}
		r.settle()
		close(r.done)
	}
	collect.Wait()
}
