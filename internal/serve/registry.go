package serve

import (
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"eigenpro/internal/core"
	"eigenpro/internal/obs"
)

// entry is one named model slot: the hot-swappable model pointer, its
// bounded request queue, and the micro-batch size derived from the device
// model for the model's shape. The queue and its batcher goroutine outlive
// swaps — only the model pointer and batch size change.
type entry struct {
	name     string
	model    atomic.Pointer[core.Model]
	maxBatch atomic.Int64
	queue    chan *request
	// svcBatchNanos is an EWMA of the wall-clock device service time per
	// executed batch, maintained by execute and read by deadline-aware
	// admission (Config.Shed).
	svcBatchNanos atomic.Int64
}

// observeService folds one executed batch into the batch service-time EWMA
// (α = 1/4). A racing store loses one sample, which the next batch repairs.
func (e *entry) observeService(d time.Duration) {
	if d <= 0 {
		return
	}
	old := e.svcBatchNanos.Load()
	if old == 0 {
		e.svcBatchNanos.Store(int64(d))
		return
	}
	e.svcBatchNanos.Store(old + (int64(d)-old)/4)
}

// estimatedWait predicts how long a newly enqueued request would sit in
// the queue: the waves ahead of it, ceil(queued/m_max), × the EWMA batch
// time. That is the paper's cost model, where a wave costs the same for one
// row as for m_max; a per-row rate would charge a long queue the per-batch
// overhead of the small batches an idle worker runs. Limits: with several
// workers it over-estimates; with a simulated m_max far above the host's
// real knee a long queue runs as one wave slower than the recent ones, so
// it under-counts, errs toward admitting, and reaping still drops what
// expires. Zero until the first batch is measured.
func (e *entry) estimatedWait() time.Duration {
	m := e.maxBatch.Load()
	waves := (int64(len(e.queue)) + m - 1) / m
	return time.Duration(waves * e.svcBatchNanos.Load())
}

// Registry maps names to hot-swappable models. Swapping is atomic with
// respect to the request path: each micro-batch executes entirely against
// the model pointer it loads at execution time.
type Registry struct {
	srv     *Server
	mu      sync.RWMutex
	entries map[string]*entry
}

func newRegistry(s *Server) *Registry {
	return &Registry{srv: s, entries: make(map[string]*entry)}
}

// register installs or replaces the model under name, starting the entry's
// batcher on first registration.
func (r *Registry) register(name string, m *core.Model) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	if !ok {
		e = &entry{name: name, queue: make(chan *request, r.srv.cfg.QueueDepth)}
		r.entries[name] = e
		r.srv.cfg.Metrics.GaugeFunc(MetricServeQueueDepth,
			"Requests waiting in the model's queue.",
			func() float64 { return float64(len(e.queue)) },
			obs.L("model", name))
		r.srv.collWG.Add(1)
		go r.srv.runBatcher(e)
	}
	e.model.Store(m)
	e.maxBatch.Store(int64(r.srv.maxBatchFor(m)))
	return nil
}

// entry returns the slot for name.
func (r *Registry) entry(name string) (*entry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	return e, ok
}

// model returns the current model for name.
func (r *Registry) model(name string) (*core.Model, bool) {
	e, ok := r.entry(name)
	if !ok {
		return nil, false
	}
	return e.model.Load(), true
}

// names returns the registered names, sorted.
func (r *Registry) names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.entries))
	for n := range r.entries {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// LoadModel reads a gob model (written by core.SaveModel) from r and
// registers it under name — the deployment path: train once, serve from any
// later process, hot-swap on retrain.
func (s *Server) LoadModel(name string, r io.Reader) error {
	m, err := core.LoadModel(r)
	if err != nil {
		return err
	}
	return s.Register(name, m)
}

// LoadModelFile is LoadModel reading from a file path.
func (s *Server) LoadModelFile(name, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return s.LoadModel(name, f)
}
