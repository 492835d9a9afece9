package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"eigenpro"
	"eigenpro/internal/mat"
)

// The SUSY-shaped distribution is fixed; --seed draws the rows and seeds
// training. σ=1 suits the z-scored 18 features (the default σ=5 leaves
// the kernel nearly flat and the held-out error near 30%).
const (
	susyStructureSeed = 7
	susySigma         = 1.0
	// susyMinAccuracy bounds held-out accuracy over HTTP from below; the
	// library reaches about 0.999.
	susyMinAccuracy = 0.9
)

// trainServeHTTPSUSY is the operator's path on the shipped binary:
// eigenpro serve with a fresh state directory, POST /train with inline
// rows and a small stated s, GET /jobs/{id} until servable, then a closed
// loop of single-row POST /v1/predict calls on a trained model over at most
// nproc connections. Training exercises the job manager, the durable
// journal, per-epoch checkpoints and low-d epochs limited by the kernel's
// elementwise pass; the serving phase is dominated by the batcher's flush
// wait. Every served row is checked against a model the benchmark trains
// in-process with the same inputs, which the library reproduces bit for
// bit.
func trainServeHTTPSUSY(o options, tr *tracer) (*result, error) {
	var (
		poolN     = pick(o, 8000, 600)
		n         = pick(o, 2000, 200)
		heldN     = pick(o, 2000, 50)
		s         = pick(o, 200, 40)
		epochs    = pick(o, 5, 2)
		jobs      = pick(o, 7, 1)
		readyReps = pick(o, 11, 2)
		centers   = pick(o, 500, 50)
		warmup    = pick(o, 500*time.Millisecond, 50*time.Millisecond)
		conns     = runtime.NumCPU()
	)
	r := newResult()
	sp := tr.begin("data.SUSYLike", 0, 0)
	train, held := drawSplit(eigenpro.SUSYLike(poolN, susyStructureSeed), n, heldN, o.seed)
	tr.end(sp)
	k := eigenpro.GaussianKernel(susySigma)

	run, err := os.MkdirTemp(o.workdir, "trainserve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(run)
	artifact := filepath.Join(run, "default.gob")
	if err := writeModel(artifact, kernelVote(k, train.Subset(seq(centers)), held.X)); err != nil {
		return nil, err
	}

	// The reference model: the job's training, replayed in-process.
	cfg := eigenpro.Config{Kernel: k, S: s, Epochs: epochs, Seed: o.seed}
	sp = tr.begin("core.NewTrainer", 0, 0)
	local, err := eigenpro.NewTrainer(cfg, train.X, train.Y)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("reference NewTrainer: %w", err)
	}
	for !local.Done() {
		if _, err := step(tr, local, openSpan{}); err != nil {
			return nil, err
		}
	}
	ref := local.Result()
	refM := ref.Model.Predict(held.X)
	refRows := make([][]float64, heldN)
	for i := range refRows {
		refRows[i] = refM.RowView(i)
	}
	r.size("n", n)
	r.size("d", train.X.Cols)
	r.size("l", train.Y.Cols)
	r.size("s", ref.Params.S)
	r.size("q", ref.Params.QAdjusted)
	r.size("m", ref.Params.Batch)
	r.size("epochs", epochs)
	r.size("jobs", jobs)
	r.size("held_out", heldN)
	r.size("connections", conns)
	r.size("setups", readyReps)

	// Request bodies are encoded before any timing.
	trainBodies := make([][]byte, jobs)
	for j := range trainBodies {
		trainBodies[j], err = json.Marshal(trainRequest{
			Name: jobName(j), X: rowsOf(train.X), Labels: train.Labels, Classes: train.Y.Cols,
			Sigma: susySigma, S: s, Epochs: epochs, Seed: o.seed,
		})
		if err != nil {
			return nil, err
		}
	}
	// The serving loop targets the first job's model.
	predictBodies := make([][]byte, heldN)
	for i := range predictBodies {
		if predictBodies[i], err = json.Marshal(predictRequest{Model: jobName(0), X: held.X.RowView(i)}); err != nil {
			return nil, err
		}
	}

	client := &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
	}}
	defer client.CloseIdleConnections()

	// Cold starts: exec to the first 200 from /readyz, each with an empty
	// state directory. The last server stays up for the workload.
	var ready []float64
	var srv *serverProc
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	for rep := 0; rep < readyReps; rep++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, err
			}
			srv = nil
		}
		state := filepath.Join(run, fmt.Sprintf("state-%d", rep))
		sp := tr.begin("exec.eigenpro serve", 0, 0)
		p, d, err := startServer(o.bin, artifact, state, client)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		srv = p
		ready = append(ready, d.Seconds())
	}
	r.repsNote("setup_s", "set-ups", ready)
	r.e2e["setup_s"] = metric{Value: median(ready), Samples: readyReps, Note: "median exec to /readyz 200"}

	// Training jobs, one at a time: POST /train, poll until servable, then
	// the first OK prediction from the new model. A segment of the timed
	// serving loop follows every job, so the jobs and the serving loop
	// sample the same stretch of host speed; each segment starts with an
	// untimed warm-up while the server collects the job's garbage.
	var servable, posts, queued, runs, toPredict []float64
	var info jobInfo
	predictURL := srv.base + "/v1/predict"
	var untraced loopStats
	var lat []time.Duration // completion order across segments
	for j := 0; j < jobs; j++ {
		parent := tr.begin("bench.job", 0, int64(j+1))
		if info, err = trainJob(client, srv.base, tr, parent, trainBodies[j], jobName(j), held.X.RowView(0), refRows[0], r); err != nil {
			return nil, err
		}
		// Every job's model is evaluated on the held-out rows. The
		// evaluation's allocations also make the server collect the
		// finished job's training buffers before the next job starts, as
		// steady traffic would.
		mse, acc, err := evalHeldOut(client, srv.base, jobName(j), held, refRows, tr, parent, r)
		tr.end(parent)
		if err != nil {
			return nil, err
		}
		if j == jobs-1 {
			r.check("held-out-accuracy", acc >= susyMinAccuracy, "accuracy %.4f over HTTP, bound %.2f", acc, susyMinAccuracy)
			r.e2e["test_mse"] = metric{Value: mse, Samples: heldN, Note: "held-out MSE over HTTP"}
		}
		servable = append(servable, info.tts.Seconds())
		posts = append(posts, ms(info.post))
		queued = append(queued, ms(info.Started.Sub(info.Submitted)))
		runs = append(runs, info.Finished.Sub(info.Started).Seconds())
		toPredict = append(toPredict, ms(info.firstOK.Sub(info.Finished)))
		r.note("job %d: POST %.1f ms, queued %.1f ms, ran %.3f s, finished to first OK predict %.1f ms, servable after %.3f s",
			j+1, posts[j], queued[j], runs[j], toPredict[j], servable[j])

		segStart := tr.now()
		httpLoop(client, predictURL, predictBodies, refRows, conns, warmup, nil).count(r)
		runtime.GC()
		seg := httpLoop(client, predictURL, predictBodies, refRows, conns, o.phase()/time.Duration(jobs), nil)
		seg.count(r)
		untraced.ok += seg.ok
		untraced.wall += seg.wall
		lat = append(lat, seg.ordered()...)
		r.untracedNS += tr.now() - segStart
	}
	r.repsNote("time_to_servable_s", "jobs", servable)
	r.e2e["time_to_servable_s"] = metric{Value: median(servable), Samples: jobs, Note: "median POST /train to first OK prediction"}
	trainedMetrics, err := scrape(client, srv.base)
	if err != nil {
		return nil, err
	}

	r.e2e["throughput_per_s"] = metric{Value: untraced.rate(), Samples: untraced.ok, Note: "completed prediction rows per second"}
	latencyMetrics(r, "trainserve-http-susy requests", lat)

	if tr != nil {
		before, err := scrape(client, srv.base)
		if err != nil {
			return nil, err
		}
		cursor, err := lastEventSeq(client, srv.base)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		traced := httpLoop(client, predictURL, predictBodies, refRows, conns, o.phase(), tr)
		traced.count(r)
		after, err := scrape(client, srv.base)
		if err != nil {
			return nil, err
		}
		evs, err := serveEvents(client, srv.base, cursor)
		if err != nil {
			return nil, err
		}
		r.overhead(untraced.rate(), traced.rate())
		eventMetrics(r, evs)
		overheadMetric(r, evs, traced)
		failed := 0
		for _, ev := range evs {
			if ev.Outcome != "ok" {
				failed++
			}
		}
		r.layer["serve.failed"] = metric{Value: float64(failed), Samples: len(evs), Note: "non-ok serve.request events"}
		r.layer["runtime.gc_cycles"] = metric{Value: after["go_gc_cycles_total"] - before["go_gc_cycles_total"],
			Samples: traced.ok, Note: "server go_gc_cycles_total over the traced phase"}
		r.layer["http.train_post_ms"] = metric{Value: median(posts), Samples: jobs, Note: "median"}
		r.layer["jobs.queue_ms"] = metric{Value: median(queued), Samples: jobs, Note: "median started - submitted"}
		r.layer["jobs.run_s"] = metric{Value: median(runs), Samples: jobs, Note: "median finished - started"}
		r.layer["jobs.servable_to_predict_ms"] = metric{Value: median(toPredict), Samples: jobs, Note: "median finished to first OK prediction"}
		if c := trainedMetrics["eigenpro_train_epoch_duration_seconds_count"]; c > 0 {
			r.layer["train.epoch_ms"] = metric{Value: 1000 * trainedMetrics["eigenpro_train_epoch_duration_seconds_sum"] / c,
				Samples: int(c), Note: "mean of eigenpro_train_epoch_duration_seconds"}
		}
		r.layer["durable.fsyncs"] = metric{Value: trainedMetrics["eigenpro_durable_fsyncs_total"], Samples: jobs, Note: fmt.Sprintf("after %d jobs", jobs)}
		r.layer["durable.journal_records"] = metric{Value: trainedMetrics["eigenpro_durable_journal_records_total"], Samples: jobs, Note: fmt.Sprintf("after %d jobs", jobs)}
		r.layer["core.s"] = metric{Value: float64(ref.Params.S), Samples: 1, Note: "stated in POST /train"}
		r.layer["core.q"] = metric{Value: float64(ref.Params.QAdjusted), Samples: 1, Note: "from the in-process replay"}
		r.layer["core.batch"] = metric{Value: float64(ref.Params.Batch), Samples: 1, Note: "from the in-process replay"}
		r.layer["core.iters"] = metric{Value: float64(info.Iters), Samples: 1, Note: fmt.Sprintf("per job of %d epochs", epochs)}
		r.layer["device.sim_s"] = metric{Value: info.SimTime.Seconds(), Samples: 1, Note: "simulated device time of one job"}
		m := eigenpro.SimTitanXp().MaxBatch(n, train.X.Cols, train.Y.Cols)
		gemmProbes(tr, r, k, eigenpro.NewMatrixData(m, train.X.Cols, train.X.Data[:m*train.X.Cols]), train.X)
		predictProbe(tr, r, ref.Model, held.X, 1)
	}

	rss, err := peakRSSMiB(strconv.Itoa(srv.cmd.Process.Pid))
	if err != nil {
		return nil, err
	}
	r.e2e["peak_rss_mb"] = metric{Value: rss, Samples: 1, Note: "VmHWM of the eigenpro serve process"}
	err = srv.stop()
	srv = nil
	if err != nil {
		return nil, err
	}
	r.checkServed()
	return r, nil
}

// trainRequest and predictRequest mirror the server's JSON bodies.
type trainRequest struct {
	Name    string      `json:"name"`
	X       [][]float64 `json:"x"`
	Labels  []int       `json:"labels"`
	Classes int         `json:"classes"`
	Sigma   float64     `json:"sigma"`
	S       int         `json:"s"`
	Epochs  int         `json:"epochs"`
	Seed    int64       `json:"seed"`
}

type predictRequest struct {
	Model string      `json:"model"`
	X     []float64   `json:"x,omitempty"`
	XS    [][]float64 `json:"xs,omitempty"`
}

type predictResponse struct {
	Y       [][]float64 `json:"y"`
	TraceID string      `json:"trace_id"`
}

// jobInfo is the part of GET /jobs/{id} the benchmark reads, plus the
// client-side times of one job.
type jobInfo struct {
	ID        string        `json:"id"`
	State     string        `json:"state"`
	Servable  bool          `json:"servable"`
	Error     string        `json:"error"`
	Iters     int           `json:"iters"`
	SimTime   time.Duration `json:"sim_time_ns"`
	Submitted time.Time     `json:"submitted"`
	Started   time.Time     `json:"started"`
	Finished  time.Time     `json:"finished"`

	post, tts time.Duration
	firstOK   time.Time
}

func jobName(j int) string { return "susy-" + strconv.Itoa(j+1) }

// trainJob submits one job, polls it until it is servable, and sends
// single-row predictions to the new model until one succeeds, recording
// its HTTP calls under parent.
func trainJob(client *http.Client, base string, tr *tracer, parent openSpan, body []byte, name string, x, want []float64, r *result) (jobInfo, error) {
	var info jobInfo
	predict, err := json.Marshal(predictRequest{Model: name, X: x})
	if err != nil {
		return info, err
	}
	start := time.Now()
	sp := tr.begin("http.POST /train", parent.id, parent.req)
	err = postJSON(client, base+"/train", body, http.StatusAccepted, &info)
	tr.end(sp)
	info.post = time.Since(start)
	r.attempted++
	if err != nil {
		r.failed++
		return info, err
	}
	for !(info.State == "done" && info.Servable) {
		if info.State == "failed" || info.State == "cancelled" {
			r.failed++
			return info, fmt.Errorf("job %s ended %s: %s", info.ID, info.State, info.Error)
		}
		if time.Since(start) > 2*time.Minute {
			return info, fmt.Errorf("job %s still %s after 2m", info.ID, info.State)
		}
		time.Sleep(5 * time.Millisecond)
		sp := tr.begin("http.GET /jobs/{id}", parent.id, parent.req)
		err := getJSON(client, base+"/jobs/"+info.ID, &info)
		tr.end(sp)
		if err != nil {
			return info, err
		}
	}
	r.check("job-"+name, true, "%s ended done and servable", info.ID)
	for {
		var out predictResponse
		sp := tr.begin("http.POST /v1/predict", parent.id, parent.req)
		err := postJSON(client, base+"/v1/predict", predict, http.StatusOK, &out)
		tr.end(sp)
		if err == nil {
			info.firstOK = time.Now()
			info.tts = info.firstOK.Sub(start)
			bad := 0
			if len(out.Y) != 1 || !rowsMatch(out.Y[0], want) {
				bad = 1
			}
			r.countServed(1, 0, bad)
			return info, nil
		}
		r.countServed(0, 1, 0)
		if time.Since(start) > 2*time.Minute {
			return info, fmt.Errorf("model %s never answered: %w", name, err)
		}
	}
}

// evalHeldOut predicts the held-out rows over HTTP in batch requests that
// fit the server's default queue depth of 1024, checks every row against
// the reference, and returns the held-out MSE and accuracy.
func evalHeldOut(client *http.Client, base, model string, held *eigenpro.Dataset, refRows [][]float64, tr *tracer, parent openSpan, r *result) (mse, acc float64, err error) {
	const batchRows = 500
	n := held.N()
	correct := 0
	got := eigenpro.NewMatrix(n, held.Y.Cols)
	rows := rowsOf(held.X)
	for lo := 0; lo < n; lo += batchRows {
		hi := min(lo+batchRows, n)
		body, err := json.Marshal(predictRequest{Model: model, XS: rows[lo:hi]})
		if err != nil {
			return 0, 0, err
		}
		var batch predictResponse
		sp := tr.begin("http.POST /v1/predict", parent.id, parent.req)
		err = postJSON(client, base+"/v1/predict", body, http.StatusOK, &batch)
		tr.end(sp)
		r.attempted++
		if err != nil {
			r.failed++
			return 0, 0, err
		}
		if len(batch.Y) != hi-lo {
			return 0, 0, fmt.Errorf("held-out predict returned %d rows, want %d", len(batch.Y), hi-lo)
		}
		for j, row := range batch.Y {
			i := lo + j
			r.servedRows++
			if !rowsMatch(row, refRows[i]) {
				r.badRows++
			}
			copy(got.RowView(i), row)
			if mat.ArgMaxRow(row) == held.Labels[i] {
				correct++
			}
		}
	}
	return eigenpro.MSE(got, held.Y), float64(correct) / float64(n), nil
}

// serverProc is one running eigenpro serve process.
type serverProc struct {
	cmd    *exec.Cmd
	base   string
	stderr bytes.Buffer
	done   chan struct{}
	err    error
}

// startServer starts eigenpro serve and waits for GET /readyz to answer
// 200, returning the time from exec to that answer.
func startServer(bin, model, state string, client *http.Client) (*serverProc, time.Duration, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := l.Addr().String()
	l.Close()
	p := &serverProc{base: "http://" + addr, done: make(chan struct{})}
	p.cmd = exec.Command(bin, "serve", "-model", model, "-addr", addr, "-state-dir", state)
	p.cmd.Stderr = &p.stderr
	start := time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.done)
	}()
	for {
		select {
		case <-p.done:
			return nil, 0, fmt.Errorf("eigenpro serve exited before ready (%v): %s", p.err, p.stderr.String())
		default:
		}
		resp, err := client.Get(p.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, time.Since(start), nil
			}
		}
		if time.Since(start) > 30*time.Second {
			p.stop()
			return nil, 0, fmt.Errorf("eigenpro serve not ready after 30s: %v", err)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop sends SIGTERM, waits for the graceful drain, and kills the process
// if it has not exited after 20 s.
func (p *serverProc) stop() error {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(20 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
		return fmt.Errorf("eigenpro serve did not stop on SIGTERM: %s", p.stderr.String())
	}
	if p.err != nil {
		return fmt.Errorf("eigenpro serve: %v: %s", p.err, p.stderr.String())
	}
	return nil
}

// httpStats is what a closed loop of HTTP connections observed.
type httpStats struct {
	loopStats
	traceLat map[string]time.Duration // client latency by trace id
}

// httpLoop runs conns goroutines, each sending its next single-row
// predict only after the previous response has been read. Response bodies
// go into a per-connection arena allocated up front and are checked after
// the loop, so the timed loop does no harness allocation; net/http's own
// allocations are part of the client's cost.
func httpLoop(client *http.Client, url string, bodies [][]byte, ref [][]float64, conns int, d time.Duration, tr *tracer) httpStats {
	type rec struct {
		q, status int
		lo, hi    int
		lat, at   time.Duration
	}
	type connState struct {
		recs  []rec
		arena []byte
		err   error
	}
	capacity := int(d.Seconds()*5000)/conns + 256
	per := make([]connState, conns)
	for c := range per {
		per[c].recs = make([]rec, 0, capacity)
		per[c].arena = make([]byte, 0, capacity*256)
	}
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(st *connState, c int) {
			defer wg.Done()
			rd := bytes.NewReader(nil)
			var buf bytes.Buffer
			buf.Grow(4096)
			for i := c; time.Now().Before(deadline); i += conns {
				q := i % len(bodies)
				rd.Reset(bodies[q])
				req, err := http.NewRequest(http.MethodPost, url, rd)
				if err != nil {
					st.err = err
					return
				}
				req.Header.Set("Content-Type", "application/json")
				sp := tr.begin("http.POST /v1/predict", 0, int64(i+1))
				s := time.Now()
				resp, err := client.Do(req)
				status := 0
				if err == nil {
					buf.Reset()
					_, err = buf.ReadFrom(resp.Body)
					resp.Body.Close()
					status = resp.StatusCode
				}
				el := time.Since(s)
				tr.end(sp)
				lo := len(st.arena)
				if err == nil {
					st.arena = append(st.arena, buf.Bytes()...)
				}
				st.recs = append(st.recs, rec{q: q, status: status, lo: lo, hi: len(st.arena), lat: el, at: s.Add(el).Sub(start)})
			}
		}(&per[c], c)
	}
	wg.Wait()
	out := httpStats{loopStats: loopStats{wall: time.Since(start)}}
	if tr != nil {
		out.traceLat = map[string]time.Duration{}
	}
	for _, st := range per {
		if st.err != nil {
			out.failed++
		}
		for _, rc := range st.recs {
			var resp predictResponse
			if rc.status != http.StatusOK || json.Unmarshal(st.arena[rc.lo:rc.hi], &resp) != nil || len(resp.Y) != 1 {
				out.failed++
				continue
			}
			out.ok++
			out.lat = append(out.lat, rc.lat)
			out.doneAt = append(out.doneAt, rc.at)
			if !rowsMatch(resp.Y[0], ref[rc.q]) {
				out.mismatched++
			}
			if out.traceLat != nil && resp.TraceID != "" {
				out.traceLat[resp.TraceID] = rc.lat
			}
		}
	}
	return out
}

// overheadMetric joins client latencies with the server's events by trace
// id: HTTP overhead is client latency minus queue wait minus execution.
func overheadMetric(r *result, evs []eigenpro.Event, h httpStats) {
	var over []float64
	for _, ev := range evs {
		if lat, ok := h.traceLat[ev.TraceID]; ok && ev.Outcome == "ok" {
			over = append(over, ms(lat-ev.QueueWait-ev.DeviceTime))
		}
	}
	p50, b := percentile(over, 50)
	r.layer["http.overhead_ms_p50"] = metric{Value: p50, Samples: len(over), Note: "client latency - queue wait - execute; " + samplesBeyond(b)}
}

// serveEvents returns the server's serve.request events after cursor.
func serveEvents(client *http.Client, base string, cursor uint64) ([]eigenpro.Event, error) {
	var out struct {
		Events []eigenpro.Event `json:"events"`
	}
	q := url.Values{"kind": {"serve.request"}, "since": {strconv.FormatUint(cursor, 10)}, "limit": {"0"}}
	err := getJSON(client, base+"/debug/events?"+q.Encode(), &out)
	return out.Events, err
}

// lastEventSeq returns the sequence number of the server's newest event.
func lastEventSeq(client *http.Client, base string) (uint64, error) {
	var out struct {
		Events []eigenpro.Event `json:"events"`
	}
	if err := getJSON(client, base+"/debug/events?limit=1", &out); err != nil {
		return 0, err
	}
	if len(out.Events) == 0 {
		return 0, nil
	}
	return out.Events[0].Seq, nil
}

// scrape reads /metrics and sums each series over its label sets.
func scrape(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, rest := line, ""
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name, rest = line[:i], line[i:]
		}
		if j := strings.LastIndexByte(rest, '}'); j >= 0 {
			rest = rest[j+1:]
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			continue
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out, sc.Err()
}

func postJSON(client *http.Client, url string, body []byte, want int, v any) error {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	return decode(resp, url, want, v)
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	return decode(resp, url, http.StatusOK, v)
}

func decode(resp *http.Response, url string, want int, v any) error {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s: %s: %s", url, resp.Status, bytes.TrimSpace(b))
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", url, err)
	}
	return nil
}

func writeModel(path string, m *eigenpro.Model) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := eigenpro.SaveModel(f, m); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// rowsOf returns the rows of x as slices sharing its storage.
func rowsOf(x *eigenpro.Matrix) [][]float64 {
	out := make([][]float64, x.Rows)
	for i := range out {
		out[i] = x.RowView(i)
	}
	return out
}

// seq returns 0, 1, ..., n-1.
func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
