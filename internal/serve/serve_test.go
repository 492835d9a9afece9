package serve

import (
	"context"
	"errors"
	"io"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eigenpro/internal/core"
	"eigenpro/internal/device"
	"eigenpro/internal/kernel"
	"eigenpro/internal/mat"
	"eigenpro/internal/obs"
)

// testModel builds a deterministic Gaussian-kernel model without training.
func testModel(centers, dim, labels int, seed uint64) *core.Model {
	x := mat.NewDense(centers, dim)
	a := mat.NewDense(centers, labels)
	state := seed*2862933555777941757 + 3037000493
	next := func() float64 {
		state = state*2862933555777941757 + 3037000493
		return float64(state>>11) / float64(1<<53)
	}
	for i := range x.Data {
		x.Data[i] = next()
	}
	for i := range a.Data {
		a.Data[i] = 2*next() - 1
	}
	return &core.Model{Kern: kernel.Gaussian{Sigma: 2}, X: x, Alpha: a}
}

// slowKernel stalls every evaluation; with a single-center model one
// prediction costs exactly one delay.
type slowKernel struct{ d time.Duration }

func (k slowKernel) Eval(x, z []float64) float64 { time.Sleep(k.d); return 1 }
func (k slowKernel) Name() string                { return "slow" }

func slowModel(d time.Duration) *core.Model {
	return &core.Model{
		Kern:  slowKernel{d: d},
		X:     mat.NewDenseData(1, 2, []float64{0, 0}),
		Alpha: mat.NewDenseData(1, 1, []float64{1}),
	}
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	t.Cleanup(s.Close)
	return s
}

func TestPredictMatchesModel(t *testing.T) {
	m := testModel(40, 5, 3, 1)
	s := newTestServer(t, Config{})
	if err := s.Register("default", m); err != nil {
		t.Fatal(err)
	}
	q := testModel(8, 5, 1, 7).X // 8 query rows
	want := m.Predict(q)
	for i := 0; i < q.Rows; i++ {
		got, err := s.Predict(context.Background(), "default", q.RowView(i))
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		for j, v := range got {
			if math.Abs(v-want.At(i, j)) > 1e-12 {
				t.Fatalf("row %d col %d: got %v want %v", i, j, v, want.At(i, j))
			}
		}
	}
	st := s.Stats()
	if st.Requests != int64(q.Rows) {
		t.Fatalf("stats.Requests = %d, want %d", st.Requests, q.Rows)
	}
	if st.SimTime <= 0 || st.Batches == 0 {
		t.Fatalf("stats missing device accounting: %+v", st)
	}
}

// TestBatcherFlushBySize pins the m_max cap: with the only worker gated,
// m_max requests sent meanwhile leave as one full batch once it frees.
func TestBatcherFlushBySize(t *testing.T) {
	const size = 4
	st := gatedBurst(t, size, size)
	if st.Batches != 2 || st.Requests != size+1 {
		t.Fatalf("%d requests ran in %d batches, want %d in 2 (the gated one, then one of %d)",
			st.Requests, st.Batches, size+1, size)
	}
}

// TestBatcherLoneRequestRunsAtOnce pins dispatch on worker availability: a
// lone request on an idle worker runs at once in a batch of its own. A
// flush hold of any length would put every request's queue wait above the
// hold; the shortest of a run of lone requests must stay under 1ms.
func TestBatcherLoneRequestRunsAtOnce(t *testing.T) {
	const n = 20
	ev := obs.NewEventLog(64)
	s := newTestServer(t, Config{Workers: 1, MaxBatch: 64, Events: ev})
	if err := s.Register("m", testModel(10, 3, 2, 3)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := s.Predict(context.Background(), "m", []float64{0, 1, 2}); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Batches != n || st.MeanOccupancy != 1 {
		t.Fatalf("%d sequential requests ran in %d batches of mean occupancy %.1f, want %d batches of 1",
			n, st.Batches, st.MeanOccupancy, n)
	}
	evs := ev.Query(obs.EventQuery{Kind: obs.KindServeRequest, Outcome: "ok"})
	if len(evs) != n {
		t.Fatalf("%d ok events, want %d", len(evs), n)
	}
	least := evs[0].QueueWait
	for _, e := range evs[1:] {
		least = min(least, e.QueueWait)
	}
	if least >= time.Millisecond {
		t.Fatalf("shortest queue wait of %d lone requests was %v: something held them", n, least)
	}
}

func TestRegistryHotSwapUnderConcurrentPredicts(t *testing.T) {
	mA := testModel(30, 4, 2, 10)
	mB := testModel(30, 4, 2, 20) // same shape, different centers/weights
	s := newTestServer(t, Config{})
	if err := s.Register("m", mA); err != nil {
		t.Fatal(err)
	}
	q := []float64{0.1, 0.2, 0.3, 0.4}
	wantA := mA.Predict(mat.NewDenseData(1, 4, q)).RowView(0)
	wantB := mB.Predict(mat.NewDenseData(1, 4, q)).RowView(0)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				out, err := s.Predict(context.Background(), "m", q)
				if err != nil {
					t.Errorf("predict during swap: %v", err)
					return
				}
				if !rowNear(out, wantA) && !rowNear(out, wantB) {
					t.Errorf("prediction matches neither model: %v", out)
					return
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		m := mA
		if i%2 == 0 {
			m = mB
		}
		if err := s.Register("m", m); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()

	if err := s.Register("m", mB); err != nil {
		t.Fatal(err)
	}
	// Last swap installed mB; a fresh request must see it.
	out, err := s.Predict(context.Background(), "m", q)
	if err != nil {
		t.Fatal(err)
	}
	if !rowNear(out, wantB) {
		t.Fatalf("after final swap got %v, want %v", out, wantB)
	}
}

func rowNear(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			return false
		}
	}
	return true
}

func TestBackpressureRejection(t *testing.T) {
	// One slow worker and a depth-1 queue: flooding must trip admission
	// control rather than queue without bound.
	s := newTestServer(t, Config{
		QueueDepth: 1, Workers: 1, MaxBatch: 1, Timeout: -1,
	})
	if err := s.Register("m", slowModel(30*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	const flood = 16
	var rejected, completed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Predict(context.Background(), "m", []float64{0, 0})
			switch {
			case errors.Is(err, ErrOverloaded):
				rejected.Add(1)
			case err == nil:
				completed.Add(1)
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	wg.Wait()
	if rejected.Load() == 0 {
		t.Fatalf("no rejections from a depth-1 queue under %d concurrent requests", flood)
	}
	if completed.Load() == 0 {
		t.Fatal("every request was rejected; the queue admitted nothing")
	}
	if st := s.Stats(); st.Rejected != rejected.Load() {
		t.Fatalf("stats.Rejected = %d, callers saw %d", st.Rejected, rejected.Load())
	}
}

func TestQueuedDeadlineExpires(t *testing.T) {
	// The first request occupies the single worker long enough for the
	// second's per-request deadline to lapse while it is still queued.
	s := newTestServer(t, Config{
		Workers: 1, MaxBatch: 1, QueueDepth: 8,
		Timeout: 40 * time.Millisecond,
	})
	if err := s.Register("m", slowModel(150*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := s.Predict(context.Background(), "m", []float64{0, 0}); err != nil {
			t.Errorf("first request: %v", err)
		}
	}()
	time.Sleep(10 * time.Millisecond) // ensure the slow request is in flight
	_, err := s.Predict(context.Background(), "m", []float64{0, 0})
	wg.Wait()
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("queued request returned %v, want ErrDeadlineExceeded", err)
	}
	if st := s.Stats(); st.Expired != 1 {
		t.Fatalf("stats.Expired = %d, want 1", st.Expired)
	}
}

func TestRequestErrors(t *testing.T) {
	s := newTestServer(t, Config{})
	if _, err := s.Predict(context.Background(), "nope", []float64{1}); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("unknown model: got %v", err)
	}
	if err := s.Register("m", testModel(5, 3, 1, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Predict(context.Background(), "m", []float64{1, 2}); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Predict(ctx, "m", []float64{1, 2, 3}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context: got %v", err)
	}
	if err := s.Register("bad", nil); err == nil {
		t.Fatal("nil model registered")
	}
}

func TestCloseFailsPending(t *testing.T) {
	s := New(Config{Workers: 1, MaxBatch: 1, Timeout: -1})
	if err := s.Register("m", slowModel(50*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	results := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			_, err := s.Predict(context.Background(), "m", []float64{0, 0})
			results <- err
		}()
	}
	time.Sleep(10 * time.Millisecond)
	s.Close()
	s.Close() // idempotent
	for i := 0; i < 4; i++ {
		if err := <-results; err != nil && !errors.Is(err, ErrClosed) {
			t.Fatalf("pending request got %v, want nil or ErrClosed", err)
		}
	}
	if _, err := s.Predict(context.Background(), "m", []float64{0, 0}); !errors.Is(err, ErrClosed) {
		t.Fatalf("predict after close: got %v", err)
	}
	if err := s.Register("m2", testModel(4, 2, 1, 5)); !errors.Is(err, ErrClosed) {
		t.Fatalf("register after close: got %v", err)
	}
}

func TestServeBatchSizing(t *testing.T) {
	dev := device.SimTitanXp()
	m := testModel(100, 7, 3, 6)
	s := newTestServer(t, Config{Device: dev})
	if err := s.Register("m", m); err != nil {
		t.Fatal(err)
	}
	e, ok := s.reg.entry("m")
	if !ok {
		t.Fatal("entry missing")
	}
	want := dev.ServeBatch(m.X.Rows, m.X.Cols, m.Alpha.Cols)
	if got := int(e.maxBatch.Load()); got != want {
		t.Fatalf("entry maxBatch = %d, want device ServeBatch %d", got, want)
	}
	if want <= 1 {
		t.Fatalf("device ServeBatch = %d; expected a multi-request micro-batch", want)
	}
}

func TestStatsString(t *testing.T) {
	s := newTestServer(t, Config{})
	if err := s.Register("m", testModel(10, 2, 1, 8)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Predict(context.Background(), "m", []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	out := st.String()
	if out == "" || st.P99 == 0 || len(st.Occupancy) == 0 {
		t.Fatalf("thin stats rendering: %+v\n%s", st, out)
	}
	// Quantiles are exact bucket bounds, 50µs·2^i.
	for _, q := range []time.Duration{st.P50, st.P99} {
		if r := q / latBucket0; q%latBucket0 != 0 || r&(r-1) != 0 {
			t.Fatalf("latency quantile %v is not a bucket bound 50µs·2^i", q)
		}
	}
}

// BenchmarkWriteOpenMetrics times one OpenMetrics render of a serving
// registry whose latency histogram carries exemplars: the exposition the
// observability-overhead study scrapes once a millisecond.
func BenchmarkWriteOpenMetrics(b *testing.B) {
	s := New(Config{})
	defer s.Close()
	if err := s.Register("m", testModel(50, 4, 3, 1)); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := s.Predict(context.Background(), "m", make([]float64, 4)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Metrics().WriteOpenMetrics(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSingleRowPredictAllocsIndependentOfMMax pins the batch slice's
// sizing: a lone single-row predict allocates about the same whether the
// model's m_max is 1 or the millions of rows the simulated device gives a
// small model.
func TestSingleRowPredictAllocsIndependentOfMMax(t *testing.T) {
	perPredict := func(maxBatch int) (bytes uint64, mmax int64) {
		s := newTestServer(t, Config{MaxBatch: maxBatch})
		if err := s.Register("m", testModel(50, 4, 3, 1)); err != nil {
			t.Fatal(err)
		}
		e, _ := s.reg.entry("m")
		x := make([]float64, 4)
		const n = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			if _, err := s.Predict(context.Background(), "m", x); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / n, e.maxBatch.Load()
	}
	small, _ := perPredict(1)
	big, mmax := perPredict(0)
	if mmax < 1<<20 {
		t.Fatalf("device m_max = %d; the test needs a model with a huge simulated m_max", mmax)
	}
	if big > 2*small {
		t.Fatalf("single-row predict allocates %d B at m_max %d, %d B at m_max 1", big, mmax, small)
	}
}

// BenchmarkPredictSingleRow times one lone single-row Predict through the
// whole serving path (admission, gather, execute, completion) against a
// 500-center, 18-feature Gaussian model, SUSY's shape, at the default
// Config, whose simulated m_max is 63,157 rows.
func BenchmarkPredictSingleRow(b *testing.B) {
	s := New(Config{})
	defer s.Close()
	m := testModel(500, 18, 1, 1)
	if err := s.Register("m", m); err != nil {
		b.Fatal(err)
	}
	x := m.X.RowView(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Predict(context.Background(), "m", x); err != nil {
			b.Fatal(err)
		}
	}
}
