package bench

import (
	"context"
	"fmt"
	"sync"
	"time"

	"eigenpro/internal/core"
	"eigenpro/internal/data"
	"eigenpro/internal/kernel"
	"eigenpro/internal/serve"
)

// ServingPoint is one measured cell of the serving study: a client count ×
// batching mode combination.
type ServingPoint struct {
	// Clients is the number of concurrent closed-loop clients.
	Clients int
	// Batched is false for the unbatched baseline (micro-batch forced
	// to 1).
	Batched bool
	// Requests is the number of completed predictions.
	Requests int64
	// WallThroughput is requests per wall-clock second.
	WallThroughput float64
	// SimThroughput is requests per simulated device second — the paper's
	// utilization argument measured on the serving path.
	SimThroughput float64
	// MeanOccupancy is the average micro-batch fill.
	MeanOccupancy float64
	// P99 is the enqueue-to-completion p99 latency.
	P99 time.Duration
}

// servingModel builds a prediction-only model over MNIST-shaped centers;
// serving throughput does not depend on the coefficient values, so the
// expensive training step is skipped.
func servingModel(centers int) *core.Model {
	ds := data.MNISTLike(centers, 51)
	m := core.NewModel(kernel.Gaussian{Sigma: 5}, ds.X, ds.Y.Cols)
	copy(m.Alpha.Data, ds.Y.Data)
	return m
}

// runServingPoint drives clients closed-loop clients, each issuing
// perClient sequential predictions, against one server configuration.
func runServingPoint(m *core.Model, clients, perClient int, batched bool) (ServingPoint, error) {
	cfg := serve.Config{
		// The queue never rejects in this study: the comparison is about
		// device efficiency, so both modes must complete every request.
		QueueDepth: clients*perClient + 1,
		// One worker models one device: predictions serialize on it in
		// both modes, exactly like kernel launches on a single GPU.
		Workers: 1,
		Timeout: -1,
	}
	if !batched {
		cfg.MaxBatch = 1
	}
	s := serve.New(cfg)
	defer s.Close()
	if err := s.Register("m", m); err != nil {
		return ServingPoint{}, err
	}

	queries := data.MNISTLike(256, 52).X
	start := time.Now()
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				row := queries.RowView((c*perClient + i) % queries.Rows)
				if _, err := s.Predict(context.Background(), "m", row); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return ServingPoint{}, err
		}
	}
	st := s.Stats()
	want := int64(clients * perClient)
	if st.Requests != want {
		return ServingPoint{}, fmt.Errorf("bench: served %d of %d requests", st.Requests, want)
	}
	p := ServingPoint{
		Clients:       clients,
		Batched:       batched,
		Requests:      st.Requests,
		MeanOccupancy: st.MeanOccupancy,
		P99:           st.P99,
	}
	if s := wall.Seconds(); s > 0 {
		p.WallThroughput = float64(st.Requests) / s
	}
	if s := st.SimTime.Seconds(); s > 0 {
		p.SimThroughput = float64(st.Requests) / s
	}
	return p, nil
}

// ServingStudy measures batched vs unbatched serving throughput across
// client counts on the simulated Titan Xp. Points come in
// (unbatched, batched) pairs per client count.
func ServingStudy(scale Scale) ([]ServingPoint, error) {
	points, _, err := servingStudy(scale)
	return points, err
}

// servingStudy also returns the model so report rendering can describe it
// without rebuilding the dataset.
func servingStudy(scale Scale) ([]ServingPoint, *core.Model, error) {
	centers := scale.pick(300, 800, 2000)
	perClient := scale.pick(12, 24, 48)
	m := servingModel(centers)
	var out []ServingPoint
	for _, clients := range []int{1, 8, 64} {
		for _, batched := range []bool{false, true} {
			p, err := runServingPoint(m, clients, perClient, batched)
			if err != nil {
				return nil, nil, err
			}
			out = append(out, p)
		}
	}
	return out, m, nil
}

// ServingThroughput renders ServingStudy as a report: requests/sec vs
// concurrent clients, batched vs unbatched, with the simulated-device
// speedup of coalescing.
func ServingThroughput(scale Scale) (*Report, error) {
	points, mdl, err := servingStudy(scale)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:    "serving",
		Title: "batched vs unbatched serving throughput (micro-batches sized to device m_max)",
		Header: []string{"clients", "mode", "requests", "wall req/s", "device req/s",
			"mean batch", "p99", "device speedup"},
	}
	for i := 0; i+1 < len(points); i += 2 {
		un, ba := points[i], points[i+1]
		speedup := 0.0
		if un.SimThroughput > 0 {
			speedup = ba.SimThroughput / un.SimThroughput
		}
		rep.AddRow(fmt.Sprint(un.Clients), "unbatched", fmt.Sprint(un.Requests),
			fmt.Sprintf("%.0f", un.WallThroughput), fmt.Sprintf("%.0f", un.SimThroughput),
			fmt.Sprintf("%.1f", un.MeanOccupancy), fmtDur(un.P99), "")
		rep.AddRow(fmt.Sprint(ba.Clients), "batched", fmt.Sprint(ba.Requests),
			fmt.Sprintf("%.0f", ba.WallThroughput), fmt.Sprintf("%.0f", ba.SimThroughput),
			fmt.Sprintf("%.1f", ba.MeanOccupancy), fmtDur(ba.P99),
			fmt.Sprintf("%.1fx", speedup))
	}
	rep.AddNote("model: %d MNIST-like centers, d=%d, l=%d; device %s, micro-batch m_max=%d",
		mdl.X.Rows, mdl.X.Cols, mdl.Alpha.Cols, experimentDevice().Name,
		experimentDevice().ServeBatch(mdl.X.Rows, mdl.X.Cols, mdl.Alpha.Cols))
	rep.AddNote("device req/s charges each micro-batch n·m·(d+l) ops on the simulated device; " +
		"coalescing amortizes the launch overhead and fills the execution wave")
	return rep, nil
}
