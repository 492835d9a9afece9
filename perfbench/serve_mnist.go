package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"eigenpro"
	"eigenpro/internal/kernel"
)

// serveMNIST measures saturated in-process prediction capacity:
// Server.Predict → batcher → Model.PredictBatch → kernel.Matrix →
// mat.MulTTo. The model is a kernel vote over MNIST-shaped centers, loaded
// through Server.LoadModel from a gob artifact the benchmark writes before
// timing. Callers run a closed loop; 64 of them keep micro-batches near
// 60 rows at 2000 centers on two cores.
func serveMNIST(o options, tr *tracer) (*result, error) {
	var (
		poolN   = pick(o, 3000, 400)
		centers = pick(o, 2000, 150)
		queries = pick(o, 512, 64)
		callers = pick(o, 64, 8)
		reps    = pick(o, 31, 2)
		warmup  = pick(o, time.Second, 50*time.Millisecond)
	)
	r := newResult()
	sp := tr.begin("data.MNISTLike", 0, 0)
	cset, qset := drawSplit(eigenpro.MNISTLike(poolN, mnistStructureSeed), centers, queries, o.seed)
	tr.end(sp)
	k := eigenpro.GaussianKernel(mnistSigma)
	model := kernelVote(k, cset, qset.X)
	var art bytes.Buffer
	if err := eigenpro.SaveModel(&art, model); err != nil {
		return nil, fmt.Errorf("save artifact: %w", err)
	}
	// The reference is Model.Predict on the artifact's decoded model, so
	// the check covers the gob round trip too.
	loaded, err := eigenpro.LoadModel(bytes.NewReader(art.Bytes()))
	if err != nil {
		return nil, fmt.Errorf("load artifact: %w", err)
	}
	refM := loaded.Predict(qset.X)
	qrows, ref := make([][]float64, queries), make([][]float64, queries)
	for i := range qrows {
		qrows[i], ref[i] = qset.X.RowView(i), refM.RowView(i)
	}
	r.size("n", centers)
	r.size("d", cset.X.Cols)
	r.size("l", cset.Y.Cols)
	r.size("queries", queries)
	r.size("callers", callers)
	r.size("m_max", eigenpro.SimTitanXp().ServeBatch(centers, cset.X.Cols, cset.Y.Cols))
	r.size("artifact_bytes", art.Len())
	r.size("setups", reps)

	// Cold set-ups: NewServer with library defaults, LoadModel from the
	// artifact, first OK prediction.
	ctx := context.Background()
	var setups, servable []float64
	var srv *eigenpro.Server
	firstBad := 0
	for rep := 0; rep < reps; rep++ {
		if srv != nil {
			srv.Close()
		}
		runtime.GC()
		start := time.Now()
		parent := tr.begin("bench.setup", 0, int64(rep+1))
		sp := tr.begin("serve.NewServer", parent.id, parent.req)
		srv = eigenpro.NewServer(eigenpro.ServerConfig{})
		tr.end(sp)
		sp = tr.begin("serve.Server.LoadModel", parent.id, parent.req)
		err := srv.LoadModel("default", bytes.NewReader(art.Bytes()))
		tr.end(sp)
		if err != nil {
			srv.Close()
			return nil, fmt.Errorf("LoadModel: %w", err)
		}
		sp = tr.begin("serve.Server.Predict", parent.id, parent.req)
		out, err := srv.Predict(ctx, "default", qrows[0])
		tr.end(sp)
		tr.end(parent)
		end := time.Since(start)
		r.attempted++
		if err != nil {
			srv.Close()
			return nil, fmt.Errorf("first predict: %w", err)
		}
		if !rowsMatch(out, ref[0]) {
			firstBad++
		}
		setups = append(setups, end.Seconds())
	}
	// Register → first OK prediction: the hand-off a trainer in the same
	// process (or the job manager) makes, on the last set-up's server.
	for rep := 0; rep < reps; rep++ {
		name := fmt.Sprintf("registered-%d", rep)
		runtime.GC()
		start := time.Now()
		parent := tr.begin("bench.registration", 0, int64(rep+1))
		sp := tr.begin("serve.Server.Register", parent.id, parent.req)
		err := srv.Register(name, loaded)
		tr.end(sp)
		if err != nil {
			srv.Close()
			return nil, fmt.Errorf("Register: %w", err)
		}
		sp = tr.begin("serve.Server.Predict", parent.id, parent.req)
		out, err := srv.Predict(ctx, name, qrows[0])
		tr.end(sp)
		tr.end(parent)
		servable = append(servable, time.Since(start).Seconds())
		r.attempted++
		if err != nil {
			srv.Close()
			return nil, fmt.Errorf("first predict after Register: %w", err)
		}
		if !rowsMatch(out, ref[0]) {
			firstBad++
		}
	}
	r.check("first-predict", firstBad == 0, "%d of %d first predictions differ from Model.Predict", firstBad, 2*reps)
	r.repsNote("setup_s", "set-ups", setups)
	r.repsNote("time_to_servable_s", "registrations", servable)
	r.e2e["setup_s"] = metric{Value: median(setups), Samples: reps, Note: "median NewServer + LoadModel + first OK predict"}
	r.e2e["time_to_servable_s"] = metric{Value: median(servable), Samples: reps, Note: "median Register + first OK predict"}
	r.e2e["test_mse"] = metric{Value: eigenpro.MSE(refM, qset.Y), Samples: queries,
		Note: "held-out MSE of the served model (every served row is checked equal to it)"}

	phaseStart := tr.now()
	serveLoop(ctx, srv, qrows, ref, callers, warmup, nil).count(r)
	runtime.GC()
	untraced := serveLoop(ctx, srv, qrows, ref, callers, o.phase(), nil)
	srv.Close()
	untraced.count(r)
	r.e2e["throughput_per_s"] = metric{Value: untraced.rate(), Samples: untraced.ok, Note: "completed prediction rows per second"}
	latencyMetrics(r, "serve-mnist requests", untraced.ordered())

	if tr != nil {
		r.untracedNS = tr.now() - phaseStart
		// The traced server also keeps the wide-event log, sized to hold
		// every request of the phase.
		events := eigenpro.NewEventLog(1 << 17)
		sp := tr.begin("serve.NewServer", 0, 0)
		srv = eigenpro.NewServer(eigenpro.ServerConfig{Events: events})
		tr.end(sp)
		sp = tr.begin("serve.Server.LoadModel", 0, 0)
		err := srv.LoadModel("default", bytes.NewReader(art.Bytes()))
		tr.end(sp)
		if err != nil {
			srv.Close()
			return nil, fmt.Errorf("LoadModel: %w", err)
		}
		serveLoop(ctx, srv, qrows, ref, callers, warmup, tr).count(r)
		runtime.GC()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		st0, seq0 := srv.Stats(), events.LastSeq()
		traced := serveLoop(ctx, srv, qrows, ref, callers, o.phase(), tr)
		runtime.ReadMemStats(&ms1)
		st1 := srv.Stats()
		srv.Close()
		traced.count(r)
		r.overhead(untraced.rate(), traced.rate())
		eventMetrics(r, events.Query(eigenpro.EventQuery{Kind: "serve.request", SinceSeq: seq0}))
		failed := (st1.Rejected - st0.Rejected) + (st1.Expired - st0.Expired) + (st1.Shed - st0.Shed) + (st1.Abandoned - st0.Abandoned)
		reqs := traced.ok + traced.failed
		r.layer["serve.failed"] = metric{Value: float64(failed), Samples: reqs, Note: "rejected + expired + shed + abandoned"}
		r.layer["serve.allocs_per_req"] = metric{Value: float64(ms1.Mallocs-ms0.Mallocs) / float64(reqs), Samples: reqs, Note: "process mallocs per request in the traced phase"}
		r.layer["runtime.gc_cycles"] = metric{Value: float64(ms1.NumGC - ms0.NumGC), Samples: reqs, Note: "during the traced phase"}
		r.layer["device.sim_s"] = metric{Value: (st1.SimTime - st0.SimTime).Seconds(), Samples: reqs, Note: "simulated device time of the traced phase"}
		rows := int(r.layer["serve.batch_rows"].Value + 0.5)
		rows = max(1, min(rows, queries))
		shape := eigenpro.NewMatrixData(rows, qset.X.Cols, qset.X.Data[:rows*qset.X.Cols])
		predictProbe(tr, r, loaded, qset.X, rows)
		gemmProbes(tr, r, k, shape, loaded.X)
	}

	rss, err := peakRSSMiB("self")
	if err != nil {
		return nil, err
	}
	r.e2e["peak_rss_mb"] = metric{Value: rss, Samples: 1, Note: "VmHWM of the benchmark process"}
	r.checkServed()
	return r, nil
}

// kernelVote returns the model α = Y/(n·k̄) over the centers: each output
// is a kernel-weighted class vote, scaled by the mean kernel value k̄
// between the query rows and the centers so outputs are of order one.
// Training a real model at 2000 centers would cost more than the run.
func kernelVote(k eigenpro.Kernel, centers *eigenpro.Dataset, q *eigenpro.Matrix) *eigenpro.Model {
	km := kernel.Matrix(k, q, centers.X)
	kbar := mean(km.Data)
	alpha := centers.Y.Clone()
	scale := 1 / (float64(centers.N()) * kbar)
	for i := range alpha.Data {
		alpha.Data[i] *= scale
	}
	return &eigenpro.Model{Kern: k, X: centers.X, Alpha: alpha}
}

// loopStats is what a closed loop of in-process callers observed.
type loopStats struct {
	ok, failed, mismatched int
	lat                    []time.Duration
	doneAt                 []time.Duration // completion times of OK requests since the loop started
	wall                   time.Duration
}

func (l loopStats) rate() float64 { return float64(l.ok) / l.wall.Seconds() }

func (l loopStats) count(r *result) { r.countServed(l.ok, l.failed, l.mismatched) }

// serveLoop runs callers goroutines, each sending its next request only
// after the previous one returns, for d. Every served row is compared with
// the reference; latencies go into per-caller slices allocated up front.
func serveLoop(ctx context.Context, srv *eigenpro.Server, qrows, ref [][]float64, callers int, d time.Duration, tr *tracer) loopStats {
	type callerStats struct {
		ok, failed, mismatched int
		lat, doneAt            []time.Duration
	}
	per := make([]callerStats, callers)
	capacity := int(d.Seconds()*20000)/callers + 256
	for c := range per {
		per[c].lat = make([]time.Duration, 0, capacity)
		per[c].doneAt = make([]time.Duration, 0, capacity)
	}
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(st *callerStats, c int) {
			defer wg.Done()
			for i := c; time.Now().Before(deadline); i += callers {
				q := i % len(qrows)
				sp := tr.begin("serve.Server.Predict", 0, int64(i+1))
				s := time.Now()
				out, err := srv.Predict(ctx, "default", qrows[q])
				el := time.Since(s)
				tr.end(sp)
				if err != nil {
					st.failed++
					continue
				}
				st.ok++
				st.lat = append(st.lat, el)
				st.doneAt = append(st.doneAt, s.Add(el).Sub(start))
				if !rowsMatch(out, ref[q]) {
					st.mismatched++
				}
			}
		}(&per[c], c)
	}
	wg.Wait()
	out := loopStats{wall: time.Since(start)}
	for _, st := range per {
		out.ok += st.ok
		out.failed += st.failed
		out.mismatched += st.mismatched
		out.lat = append(out.lat, st.lat...)
		out.doneAt = append(out.doneAt, st.doneAt...)
	}
	return out
}

// ordered returns the latencies in completion order.
func (l loopStats) ordered() []time.Duration {
	idx := make([]int, len(l.lat))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return l.doneAt[idx[a]] < l.doneAt[idx[b]] })
	out := make([]time.Duration, len(idx))
	for i, j := range idx {
		out[i] = l.lat[j]
	}
	return out
}

// eventMetrics derives the serving layer metrics from the server's
// serve.request wide events. Event.DeviceTime is the host wall time of the
// micro-batch that carried the request.
func eventMetrics(r *result, evs []eigenpro.Event) {
	var wait, exec []float64
	batches := map[uint64]int{}
	for _, ev := range evs {
		if ev.Outcome != "ok" {
			continue
		}
		wait = append(wait, ms(ev.QueueWait))
		exec = append(exec, ms(ev.DeviceTime))
		batches[ev.BatchID] = ev.Occupancy
	}
	rows := 0
	for _, occ := range batches {
		rows += occ
	}
	w50, b50 := percentile(wait, 50)
	w99, b99 := percentile(wait, 99)
	e50, _ := percentile(exec, 50)
	r.layer["serve.queue_wait_ms_p50"] = metric{Value: w50, Samples: len(wait), Note: samplesBeyond(b50)}
	r.layer["serve.queue_wait_ms_p99"] = metric{Value: w99, Samples: len(wait), Note: samplesBeyond(b99)}
	r.layer["serve.execute_ms_p50"] = metric{Value: e50, Samples: len(exec), Note: "batch wall time per request"}
	batchRows := 0.0
	if len(batches) > 0 {
		batchRows = float64(rows) / float64(len(batches))
	}
	r.layer["serve.batch_rows"] = metric{Value: batchRows, Samples: len(batches), Note: "mean rows per micro-batch"}
	r.layer["serve.batches"] = metric{Value: float64(len(batches)), Samples: len(batches), Note: "micro-batches seen in the events"}
}
