package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef names one metric the benchmark prints. Moves says which
// end-to-end metric, on which workload, a per-layer metric should move;
// BENCHMARK.json carries the same names, units and directions.
type metricDef struct {
	Name, Unit, Better, Moves string
}

// endToEnd are the untraced metrics every workload prints.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", ""},
	{"throughput_per_s", "1/s", "higher", ""},
	{"p50_ms", "ms", "lower", ""},
	{"p99_ms", "ms", "lower", ""},
	{"time_to_servable_s", "s", "lower", ""},
	{"test_mse", "1", "lower", ""},
	{"peak_rss_mb", "MiB", "lower", ""},
}

// perLayer are the traced metrics. Every traced run prints all of them; a
// workload that does not reach a layer reports 0 for it.
var perLayer = []metricDef{
	{"core.NewTrainer_s", "s", "lower", "setup_s on train-mnist"},
	{"core.EstimateSpectrum_s", "s", "lower", "setup_s on train-mnist"},
	{"eigen.TopQSym_s", "s", "lower", "setup_s on train-mnist"},
	{"mat.Orthonormalize_ms", "ms", "lower", "setup_s on train-mnist"},
	{"core.Trainer.Step_ms", "ms", "lower", "throughput_per_s on train-mnist"},
	{"core.Trainer.Step_allocs", "count", "lower", "throughput_per_s on train-mnist"},
	{"core.Trainer.Step_mib", "MiB", "lower", "throughput_per_s on train-mnist"},
	{"kernel.MatrixInto_ms", "ms", "lower", "throughput_per_s on train-mnist; time_to_servable_s on trainserve-http-susy"},
	{"mat.MulTTo_ms", "ms", "lower", "throughput_per_s on train-mnist and serve-mnist"},
	{"mat.MulTTo_gflops", "GFLOP/s", "higher", "throughput_per_s on train-mnist and serve-mnist"},
	{"core.Model.PredictBatch_ms", "ms", "lower", "throughput_per_s on serve-mnist; p50_ms on train-mnist"},
	{"core.s", "count", "lower", "setup_s on train-mnist (exact count)"},
	{"core.q", "count", "higher", "throughput_per_s on train-mnist (exact count)"},
	{"core.batch", "count", "higher", "throughput_per_s on train-mnist (exact count)"},
	{"core.iters", "count", "lower", "time_to_servable_s on train-mnist and trainserve-http-susy (exact count)"},
	{"device.sim_s", "s", "lower", "none: simulated device time, not wall time"},
	{"serve.queue_wait_ms_p50", "ms", "lower", "p50_ms on serve-mnist and trainserve-http-susy"},
	{"serve.queue_wait_ms_p99", "ms", "lower", "p99_ms on serve-mnist"},
	{"serve.execute_ms_p50", "ms", "lower", "p50_ms and throughput_per_s on serve-mnist and trainserve-http-susy"},
	{"serve.batch_rows", "count", "higher", "throughput_per_s on serve-mnist"},
	{"serve.batches", "count", "higher", "throughput_per_s on serve-mnist"},
	{"serve.failed", "count", "lower", "failed/attempted on serve-mnist and trainserve-http-susy"},
	{"serve.allocs_per_req", "count", "lower", "p99_ms on serve-mnist"},
	{"runtime.gc_cycles", "count", "lower", "p99_ms on serve-mnist and trainserve-http-susy; throughput_per_s on train-mnist"},
	{"http.train_post_ms", "ms", "lower", "time_to_servable_s on trainserve-http-susy"},
	{"jobs.queue_ms", "ms", "lower", "time_to_servable_s on trainserve-http-susy"},
	{"jobs.run_s", "s", "lower", "time_to_servable_s on trainserve-http-susy"},
	{"train.epoch_ms", "ms", "lower", "time_to_servable_s on trainserve-http-susy"},
	{"durable.fsyncs", "count", "lower", "time_to_servable_s on trainserve-http-susy (exact count)"},
	{"durable.journal_records", "count", "lower", "time_to_servable_s on trainserve-http-susy (exact count)"},
	{"jobs.servable_to_predict_ms", "ms", "lower", "time_to_servable_s on trainserve-http-susy"},
	{"http.overhead_ms_p50", "ms", "lower", "p50_ms and throughput_per_s on trainserve-http-susy"},
	{"trace.coverage", "1", "higher", "none: share of the workload's wall time inside spans"},
	{"trace.overhead_pct", "%", "lower", "none: throughput_per_s lost to tracing (traced vs untraced phase)"},
}

// metric is one measured value with the number of samples behind it.
type metric struct {
	Value   float64
	Samples int
	Note    string
}

// check is one correctness assertion; a failed check fails the run.
type check struct {
	Name   string
	OK     bool
	Detail string
}

// kv is one ordered key/value pair of run metadata.
type kv struct {
	Key   string
	Value any
}

// result is what one workload run measured.
type result struct {
	e2e, layer map[string]metric
	attempted  int
	failed     int
	checks     []check
	sizes      []kv
	notes      []string
	// servedRows and badRows count served prediction rows and those that
	// differ from the reference by more than predictTol.
	servedRows, badRows int
	// untracedNS is how long a traced run spent in its untraced comparison
	// phase; span coverage leaves it out of the run's wall time.
	untracedNS int64
}

// countServed adds a serving loop's requests to the run's totals.
func (r *result) countServed(ok, failed, mismatched int) {
	r.attempted += ok + failed
	r.failed += failed
	r.servedRows += ok
	r.badRows += mismatched
}

// checkServed asserts that every served row matched its reference.
func (r *result) checkServed() {
	r.check("served-rows", r.badRows == 0, "%d of %d served rows differ from Model.Predict on that row by more than %g relative",
		r.badRows, r.servedRows, predictTol)
}

// overhead records trace.overhead_pct: the share of throughput the traced
// phase lost against the untraced phase of the same run.
func (r *result) overhead(untraced, traced float64) {
	r.layer["trace.overhead_pct"] = metric{Value: 100 * (untraced - traced) / untraced, Samples: 2,
		Note: fmt.Sprintf("untraced %.4g/s, traced %.4g/s", untraced, traced)}
}

func newResult() *result {
	return &result{e2e: map[string]metric{}, layer: map[string]metric{}}
}

func (r *result) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (r *result) size(key string, value any) { r.sizes = append(r.sizes, kv{key, value}) }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// repsNote records the range of the repeated measurements behind a median.
func (r *result) repsNote(name, of string, xs []float64) {
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	r.note("%s over %d %s: min %.4g median %.4g max %.4g", name, len(xs), of, lo, median(xs), hi)
}

func (r *result) correct() bool {
	for _, c := range r.checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// jsonResult is the last line of standard output.
type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the human-readable lines and then the JSON result line for
// the metric set the mode selects. It fails when an end-to-end metric is
// missing or any value is not finite: both are benchmark bugs.
func report(w io.Writer, r *result, traced bool) error {
	defs, values := endToEnd, r.e2e
	if traced {
		defs, values = perLayer, r.layer
	}
	for _, s := range r.sizes {
		fmt.Fprintf(w, "# size %s=%v\n", s.Key, s.Value)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, c := range r.checks {
		status := "ok"
		if !c.OK {
			status = "FAILED"
		}
		fmt.Fprintf(w, "# check %s %s: %s\n", c.Name, status, c.Detail)
	}
	out := jsonResult{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, d := range defs {
		m, ok := values[d.Name]
		if !ok {
			if !traced {
				return fmt.Errorf("end-to-end metric %s was not measured", d.Name)
			}
			m.Note = "not measured on this workload"
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, m.Value)
		}
		line := fmt.Sprintf("%-28s %14.6g %-8s n=%d", d.Name, m.Value, d.Unit, m.Samples)
		if m.Note != "" {
			line += "  " + m.Note
		}
		if d.Moves != "" {
			line += "  -> " + d.Moves
		}
		fmt.Fprintln(w, line)
		out.Metrics[d.Name] = jsonMetric{Value: m.Value, Unit: d.Unit}
	}
	enc, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", enc)
	return err
}

// sortedKeys returns the keys of m in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
