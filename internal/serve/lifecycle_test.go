package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"eigenpro/internal/core"
	"eigenpro/internal/mat"
)

// waitFor polls cond until it holds or the deadline lapses.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(time.Millisecond)
	}
}

// gateKernel blocks every evaluation until the gate closes, pinning the
// worker pool in a known busy state for as long as a test needs; entered
// signals that an evaluation has started.
type gateKernel struct {
	gate    <-chan struct{}
	entered chan<- struct{}
}

func (k gateKernel) Eval(x, z []float64) float64 {
	if k.entered != nil {
		k.entered <- struct{}{}
	}
	<-k.gate
	return 1
}
func (k gateKernel) Name() string { return "gate" }

// gatedModel returns a one-center model whose kernel blocks until release
// is called, and the channel its evaluations announce themselves on.
func gatedModel(t *testing.T) (m *core.Model, entered <-chan struct{}, release func()) {
	t.Helper()
	gate := make(chan struct{})
	var open sync.Once
	release = func() { open.Do(func() { close(gate) }) }
	// Registered after newTestServer's s.Close, so it runs first and Close
	// never waits on a stalled worker.
	t.Cleanup(release)
	ent := make(chan struct{}, 64)
	return &core.Model{
		Kern:  gateKernel{gate: gate, entered: ent},
		X:     mat.NewDenseData(1, 2, []float64{0, 0}),
		Alpha: mat.NewDenseData(1, 1, []float64{1}),
	}, ent, release
}

// gatedBurst gates the only worker on one request, sends n more, waits
// until the batcher holds min(n, mmax) of them in one batch and the rest
// sit in the queue, then releases the worker and returns the stats once
// every request has completed. The held batch is full or holds everything
// by then, so the release cannot race a top-up.
func gatedBurst(t *testing.T, mmax, n int) Stats {
	t.Helper()
	s := newTestServer(t, Config{Workers: 1, MaxBatch: mmax, QueueDepth: n, Timeout: -1})
	m, entered, release := gatedModel(t)
	if err := s.Register("m", m); err != nil {
		t.Fatal(err)
	}
	e, ok := s.reg.entry("m")
	if !ok {
		t.Fatal("entry missing")
	}
	var wg sync.WaitGroup
	predict := func() {
		defer wg.Done()
		if _, err := s.Predict(context.Background(), "m", []float64{0, 0}); err != nil {
			t.Error(err)
		}
	}
	wg.Add(1)
	go predict()
	<-entered // the worker is executing the first request and gated
	wg.Add(n)
	for i := 0; i < n; i++ {
		go predict()
	}
	queued := n - min(n, mmax)
	waitFor(t, 5*time.Second, func() bool { return s.pending.Load() == int64(n+1) && len(e.queue) == queued },
		"requests never reached the batcher and queue")
	release()
	wg.Wait()
	return s.Stats()
}

// TestCanceledRequestNeverExecutes pins cancellation propagation: a request
// whose context is canceled while it sits in the queue must be reaped
// before device execution — zero device ops charged, no latency sample,
// counted as abandoned rather than expired.
func TestCanceledRequestNeverExecutes(t *testing.T) {
	s := newTestServer(t, Config{
		Workers: 1, MaxBatch: 4, QueueDepth: 16, Timeout: -1,
	})
	m := slowModel(time.Millisecond)
	if err := s.Register("m", m); err != nil {
		t.Fatal(err)
	}

	// cancel() publishes ctx.Err synchronously, so the request enqueues as
	// a corpse: whenever the batcher picks it up, it must already see it as
	// abandoned. This is the strongest deterministic form of "canceled
	// while queued".
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Predict(ctx, "m", []float64{0, 0}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled request returned %v, want context.Canceled", err)
	}
	waitFor(t, 5*time.Second, func() bool { return s.Stats().Abandoned == 1 },
		"canceled request was never reaped")

	// A live request afterwards must be the only work the device ever sees.
	if _, err := s.Predict(context.Background(), "m", []float64{0, 0}); err != nil {
		t.Fatalf("live request after cancellation: %v", err)
	}
	st := s.Stats()
	if want := core.PredictOps(m.X.Rows, 1, m.X.Cols, m.Alpha.Cols); st.SimOps != want {
		t.Fatalf("device ops = %v, want %v (one live row): the canceled request reached the device",
			st.SimOps, want)
	}
	if st.Requests != 1 {
		t.Fatalf("latency histogram holds %d samples, want 1 (the live request only)", st.Requests)
	}
	if st.Expired != 0 {
		t.Fatalf("canceled request miscounted as expired: %+v", st)
	}
}

// TestSaturationOccupancy pins occupancy under sustained overload: while
// the only worker is busy the batcher keeps filling the next batch from
// the backlog, so batches leave full and mean occupancy stays at
// >= 0.8*m_max.
func TestSaturationOccupancy(t *testing.T) {
	const mmax = 8
	s := newTestServer(t, Config{
		Workers: 1, MaxBatch: mmax, QueueDepth: 256, Timeout: -1,
	})
	if err := s.Register("m", slowModel(2*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	const (
		clients   = 4 * mmax
		perClient = 8
	)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				if _, err := s.Predict(context.Background(), "m", []float64{0, 0}); err != nil {
					t.Errorf("predict under saturation: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	if st.Requests != clients*perClient {
		t.Fatalf("delivered %d of %d", st.Requests, clients*perClient)
	}
	if floor := 0.8 * mmax; st.MeanOccupancy < floor {
		t.Fatalf("mean occupancy %.2f under saturation, want >= %.1f (m_max=%d)\n%+v",
			st.MeanOccupancy, floor, mmax, st)
	}
}

// TestDeadlineAwareShedding pins Config.Shed: once the batch service-time
// EWMA is primed, a flood against a busy worker must shed the requests
// whose deadline cannot survive the estimated queue wait — at admission,
// with ErrShed (mapped to 429 by the HTTP layer) — while still admitting
// the requests that can make it.
func TestDeadlineAwareShedding(t *testing.T) {
	s := newTestServer(t, Config{
		Workers: 1, MaxBatch: 1, QueueDepth: 64, Shed: true, Timeout: 30 * time.Millisecond,
	})
	if err := s.Register("m", slowModel(20*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	// Prime the service-time EWMA with one measured batch.
	if _, err := s.Predict(context.Background(), "m", []float64{0, 0}); err != nil {
		t.Fatalf("priming request: %v", err)
	}

	const flood = 8
	var shed, delivered, expired int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Predict(context.Background(), "m", []float64{0, 0})
			mu.Lock()
			defer mu.Unlock()
			switch {
			case errors.Is(err, ErrShed):
				shed++
			case errors.Is(err, ErrDeadlineExceeded):
				expired++
			case err == nil:
				delivered++
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	wg.Wait()
	if shed == 0 {
		t.Fatalf("nothing shed: delivered %d, expired %d (queue-wait estimate never tripped)",
			delivered, expired)
	}
	if delivered == 0 {
		t.Fatal("everything shed; admission control admitted nothing")
	}
	if st := s.Stats(); st.Shed != shed {
		t.Fatalf("stats.Shed = %d, callers saw %d", st.Shed, shed)
	}
}

// TestShedEstimateCountsWaves pins the unit of the shed estimate: a queue
// that fits in one wave of m_max waits one batch time, however few rows the
// measured batch carried, and each further wave adds one more.
func TestShedEstimateCountsWaves(t *testing.T) {
	e := &entry{queue: make(chan *request, 64)}
	e.maxBatch.Store(32)
	e.observeService(5 * time.Millisecond) // one 1-row batch
	for i := 0; i < 31; i++ {
		e.queue <- &request{}
	}
	if got := e.estimatedWait(); got != 5*time.Millisecond {
		t.Fatalf("31 queued at m_max 32 after a 5ms batch: estimated %v, want one wave (5ms)", got)
	}
	e.queue <- &request{}
	e.queue <- &request{}
	if got := e.estimatedWait(); got != 10*time.Millisecond {
		t.Fatalf("33 queued at m_max 32: estimated %v, want two waves (10ms)", got)
	}
}

// TestBusyWorkerGetsFullBatches pins the work-conserving batcher: with the
// only worker blocked, 2·m_max queued requests must leave as exactly two
// full batches once it frees, not as partial waves handed out while no
// worker could take them.
func TestBusyWorkerGetsFullBatches(t *testing.T) {
	const mmax = 4
	st := gatedBurst(t, mmax, 2*mmax)
	if st.Batches != 3 || st.Requests != 2*mmax+1 {
		t.Fatalf("%d requests ran in %d batches, want %d in 3 (the gated one, then two of %d)",
			st.Requests, st.Batches, 2*mmax+1, mmax)
	}
}

// TestPluggedPipelineRejects floods a plugged pipeline: with the worker
// executing, the batcher blocked on its unbuffered send to the worker, and
// the depth-1 queue all occupied, every further request must be rejected
// with ErrOverloaded, never admitted. The pipeline is plugged with a gated
// model so the queue stays full for the whole flood.
func TestPluggedPipelineRejects(t *testing.T) {
	s := newTestServer(t, Config{
		Workers: 1, MaxBatch: 1, QueueDepth: 1, Timeout: -1,
	})
	m, entered, _ := gatedModel(t)
	if err := s.Register("m", m); err != nil {
		t.Fatal(err)
	}
	e, ok := s.reg.entry("m")
	if !ok {
		t.Fatal("entry missing")
	}
	plug := func() { go s.Predict(context.Background(), "m", []float64{0, 0}) }
	// Plug the pipeline one stage at a time so the final state is
	// deterministic: one request executing (blocked on the gate), one held
	// by the batcher blocked on the unbuffered work send, one parked in the
	// depth-1 queue. Nothing can drain until the gate opens at cleanup, so
	// every request below is rejected.
	plug()
	<-entered // worker is executing and gated
	plug()
	waitFor(t, 5*time.Second, func() bool { return s.pending.Load() == 2 && len(e.queue) == 0 },
		"second plug never reached the blocked batcher")
	plug()
	waitFor(t, 5*time.Second, func() bool { return s.pending.Load() == 3 && len(e.queue) == 1 },
		"third plug never parked in the queue")

	for i := 0; i < 100; i++ {
		if _, err := s.Predict(context.Background(), "m", []float64{0, 0}); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("request %d was admitted into a plugged pipeline: %v", i, err)
		}
	}
}
