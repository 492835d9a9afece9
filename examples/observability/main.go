// Observability: wire serving, the training-job manager, and the per-job
// trainers onto ONE metrics registry and ONE wide-event log, then read
// the whole process back through the unified endpoints — a
// Prometheus/OpenMetrics exposition at /metrics and structured wide
// events at /debug/events.
//
// The walkthrough drives the full train → serve loop over HTTP (the same
// combined handler `eigenpro serve` mounts), then prints:
//
//   - the OpenMetrics latency-bucket exemplar carrying the trace ID the
//     predict response echoed back;
//   - the request's wide event, found by that ID at
//     /debug/events?trace_id= (queue wait, device time, micro-batch);
//   - the wide-event history of the training job (every state
//     transition plus one train.epoch record per epoch);
//   - a trimmed /metrics scrape showing serving, jobs, trainer, and Go
//     runtime series side by side in one exposition.
//
// The last act adds the judgment layer: declarative SLOs evaluated as
// burn rates over the same telemetry, with a flight recorder armed behind
// them. The demo defines a latency objective on real serving (which stays
// healthy) plus a synthetic availability objective fed by demo counters,
// drives the synthetic one to a breach, and watches the alert walk
// ok → warn → page: /readyz degrades, a diagnosis snapshot (CPU/heap
// profiles, goroutines, recent wide events, metrics) lands on
// disk, and /debug/flight serves it back.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"eigenpro"
)

func main() {
	// One registry and one wide-event log for the whole process. Passing
	// the same pair to both configs is the entire integration story:
	// serving counters, job-state gauges, per-epoch training telemetry,
	// and every wide event all land on the same endpoints.
	reg := eigenpro.NewMetricsRegistry()
	events := eigenpro.NewEventLog(0) // 0 = default 4096-event ring
	// In production, sample steady-state ok events (errors, sheds, and
	// expiries are always kept) and mirror to a JSON-lines sink:
	//   events.SetSampleEvery(10)
	//   events.SetSink(os.Stderr, eigenpro.EventWarn)

	// The judgment layer. A flight recorder holds the evidence locker
	// (bounded on disk, rate-limited), and the SLO evaluator polls the
	// registry once per Resolution, folding deltas into burn-rate windows —
	// the serving hot path is never touched. The latency objective watches
	// real serving and will stay green; the availability objective watches
	// two demo counters this walkthrough will push into breach.
	flightDir, err := os.MkdirTemp("", "eigenpro-flight-demo")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(flightDir)
	demoGood := reg.Counter("demo_good_total", "synthetic good requests")
	demoBad := reg.Counter("demo_bad_total", "synthetic bad requests")
	flight, err := eigenpro.NewFlightRecorder(eigenpro.FlightConfig{
		Dir:        flightDir,
		CPUProfile: 100 * time.Millisecond, // keep the demo snappy; default is 5s
		Events:     events,
		Registries: []*eigenpro.MetricsRegistry{reg},
	})
	if err != nil {
		log.Fatal(err)
	}
	sloEval, err := eigenpro.NewSLOEvaluator(eigenpro.SLOConfig{
		Objectives: []eigenpro.SLOObjective{
			{Kind: eigenpro.SLOLatency, Name: "serve-latency", Target: 0.99,
				LatencyP99: 250 * time.Millisecond},
			{Kind: eigenpro.SLOAvailability, Name: "demo-availability", Target: 0.99,
				GoodMetric: "demo_good_total", BadMetrics: []string{"demo_bad_total"}},
		},
		Window:     2 * time.Second, // demo-sized; production uses minutes
		Resolution: 50 * time.Millisecond,
		PageAfter:  300 * time.Millisecond,
		Source:     reg,
		Events:     events,
		Flight:     flight,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sloEval.Close()

	srv := eigenpro.NewServer(eigenpro.ServerConfig{
		Metrics: reg,
		Events:  events,
		SLO:     sloEval,
		Flight:  flight,
	})
	defer srv.Close()
	mgr := eigenpro.NewTrainingManager(eigenpro.TrainingConfig{
		Workers:   1,
		Registrar: srv, // finished jobs auto-register on the server
		Metrics:   reg,
		Events:    events,
	})
	defer mgr.Close()

	ts := httptest.NewServer(eigenpro.NewTrainServeHandler(srv, mgr))
	defer ts.Close()

	// Train a model over HTTP and wait for it.
	body := `{"name":"susy","dataset":"susy","n":400,"epochs":3,"s":64,"sigma":3,"seed":1}`
	resp, err := http.Post(ts.URL+"/train", "application/json", strings.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	var job eigenpro.TrainingJob
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("submitted job %s\n", job.ID)
	for {
		cur, ok := eigenpro.JobStatus(mgr, job.ID)
		if !ok || cur.State == eigenpro.JobFailed {
			log.Fatalf("job did not finish: %+v", cur)
		}
		if cur.State == eigenpro.JobDone {
			fmt.Printf("job done: %d epochs, final mse %.3g\n", cur.Epoch, cur.TrainMSE)
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Predict; the response echoes the trace ID (also in X-Trace-Id).
	query := eigenpro.SUSYLike(4, 9).X.RowView(0)
	pb, _ := json.Marshal(map[string]any{"model": "susy", "x": query})
	pr, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(pb))
	if err != nil {
		log.Fatal(err)
	}
	var pred struct {
		Labels  []int  `json:"labels"`
		TraceID string `json:"trace_id"`
	}
	if err := json.NewDecoder(pr.Body).Decode(&pred); err != nil {
		log.Fatal(err)
	}
	pr.Body.Close()
	fmt.Printf("predicted label %d (trace %s)\n\n", pred.Labels[0], pred.TraceID)

	// The trace ID resolves on two surfaces. First, the OpenMetrics
	// exposition (content-negotiated via Accept) attaches it to the
	// latency bucket the request landed in as an exemplar.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text")
	omr, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	omRaw, err := io.ReadAll(omr.Body)
	omr.Body.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nlatency-bucket exemplar carrying the predict trace id:")
	for _, line := range strings.Split(string(omRaw), "\n") {
		if strings.Contains(line, `trace_id="`+pred.TraceID+`"`) {
			fmt.Println("  " + line)
		}
	}

	// Second, /debug/events?trace_id= returns the request's wide event:
	// how long it queued, how long the device took, and which
	// micro-batch carried it.
	er, err := http.Get(ts.URL + "/debug/events?trace_id=" + pred.TraceID)
	if err != nil {
		log.Fatal(err)
	}
	var evPayload struct {
		Events  []eigenpro.Event `json:"events"`
		Emitted uint64           `json:"emitted"`
		Dropped uint64           `json:"dropped"`
	}
	if err := json.NewDecoder(er.Body).Decode(&evPayload); err != nil {
		log.Fatal(err)
	}
	er.Body.Close()
	for _, ev := range evPayload.Events {
		fmt.Printf("\nwide event for trace %s:\n", ev.TraceID)
		fmt.Printf("  batch %d (occupancy %d), queue wait %v, device time %v\n",
			ev.BatchID, ev.Occupancy, ev.QueueWait.Round(time.Microsecond),
			ev.DeviceTime.Round(time.Microsecond))
	}

	// The training job's record is its wide-event history: one job.state
	// record per lifecycle transition (the done record's wall is the time
	// spent registering the model) and one train.epoch per epoch.
	fmt.Printf("\njob %s event history (newest first, %d kept / %d sampled out):\n",
		job.ID, evPayload.Emitted, evPayload.Dropped)
	jr, err := http.Get(ts.URL + "/debug/events?job=" + job.ID)
	if err != nil {
		log.Fatal(err)
	}
	var jobEvents struct {
		Events []eigenpro.Event `json:"events"`
	}
	if err := json.NewDecoder(jr.Body).Decode(&jobEvents); err != nil {
		log.Fatal(err)
	}
	jr.Body.Close()
	for _, ev := range jobEvents.Events {
		switch ev.Kind {
		case "train.epoch":
			fmt.Printf("  train.epoch  epoch %d  mse %.3g  wall %v\n",
				ev.Epoch, ev.MSE, ev.Wall.Round(time.Microsecond))
		case "job.state":
			fmt.Printf("  job.state    -> %-9s wall %v\n", ev.Outcome, ev.Wall.Round(time.Microsecond))
		}
	}

	// One /metrics scrape covers all three subsystems plus the Go
	// runtime. Print the series this walkthrough touched (a real
	// deployment points Prometheus at the endpoint instead).
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	raw, err := io.ReadAll(mr.Body)
	mr.Body.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nselected /metrics series:")
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		for _, prefix := range []string{
			"eigenpro_serve_requests_total",
			"eigenpro_serve_latency_seconds_count",
			"eigenpro_serve_device_utilization",
			"eigenpro_jobs_submitted_total",
			"eigenpro_jobs_state",
			"eigenpro_train_epochs_total",
			"eigenpro_train_mse",
			"go_goroutines",
			"go_gc_cycles_total",
		} {
			if strings.HasPrefix(line, prefix) {
				fmt.Println("  " + line)
			}
		}
	}

	// ---- The judgment layer: SLO burn rates and the flight recorder ----

	// Healthy first. The evaluator's opening observation is a baseline:
	// counts that predate it read as history, not traffic (and on a busy
	// box the background tick may lag the CPU-heavy walkthrough above),
	// so wait for the first tick before seeding good traffic, then spread
	// it across a few resolution windows like a real workload would.
	for sloEval.Ticks() == 0 {
		time.Sleep(10 * time.Millisecond)
	}
	for i := 0; i < 8; i++ {
		demoGood.Add(25)
		time.Sleep(60 * time.Millisecond)
	}
	fmt.Println("\nSLO standings before the breach:")
	printSLOs(ts.URL)

	// Drive the synthetic breach: all-bad traffic burns the 1% error
	// budget at 100x, tripping the fast burn rule (warn), and sustaining
	// it past PageAfter escalates to page — which trips the armed flight
	// recorder exactly once (further triggers are rate-limited).
	fmt.Println("\ndriving all-bad synthetic traffic...")
	for i := 0; !sloEval.Paging() && i < 200; i++ {
		demoBad.Add(25)
		time.Sleep(25 * time.Millisecond)
	}
	fmt.Println("\nSLO standings during the breach:")
	printSLOs(ts.URL)

	// Readiness now reports the process degraded.
	rr, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		log.Fatal(err)
	}
	rbody, _ := io.ReadAll(rr.Body)
	rr.Body.Close()
	fmt.Printf("\nGET /readyz -> %d %s", rr.StatusCode, rbody)

	// The page shipped with its diagnosis bundle. meta.json is written
	// last, so a listed-and-complete snapshot is fully on disk.
	flight.Wait()
	fr, err := http.Get(ts.URL + "/debug/flight")
	if err != nil {
		log.Fatal(err)
	}
	var flightList struct {
		Snapshots []eigenpro.FlightSnapshot `json:"snapshots"`
	}
	if err := json.NewDecoder(fr.Body).Decode(&flightList); err != nil {
		log.Fatal(err)
	}
	fr.Body.Close()
	for _, snap := range flightList.Snapshots {
		fmt.Printf("\nflight snapshot %s (reason %q, complete %v):\n",
			filepath.Join(flightDir, snap.Name), snap.Reason, snap.Complete)
		for _, f := range snap.Files {
			fmt.Printf("  %-14s %6d bytes\n", f.Name, f.Bytes)
		}
	}

	// Every alert-state change is also a wide event on the shared log.
	sr, err := http.Get(ts.URL + "/debug/events?kind=slo.state")
	if err != nil {
		log.Fatal(err)
	}
	var sloEvents struct {
		Events []eigenpro.Event `json:"events"`
	}
	if err := json.NewDecoder(sr.Body).Decode(&sloEvents); err != nil {
		log.Fatal(err)
	}
	sr.Body.Close()
	fmt.Println("\nslo.state wide events (newest first):")
	for _, ev := range sloEvents.Events {
		fmt.Printf("  %-7s %-20s -> %s\n", ev.Level, ev.Objective, ev.Outcome)
	}
}

// printSLOs renders the /debug/slo standings as a small table.
func printSLOs(base string) {
	resp, err := http.Get(base + "/debug/slo")
	if err != nil {
		log.Fatal(err)
	}
	var payload struct {
		Objectives []eigenpro.SLOObjectiveStatus `json:"objectives"`
		Paging     bool                          `json:"paging"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	for _, o := range payload.Objectives {
		fmt.Printf("  %-20s %-5s burn fast %7.2f  slow %7.2f  budget %6.1f%%\n",
			o.Name, strings.ToUpper(o.State), o.BurnFast, o.BurnSlow,
			100*o.ErrorBudgetRemaining)
	}
	if payload.Paging {
		fmt.Println("  (paging: /readyz now reports degraded)")
	}
}
