// Package obs is the unified observability layer: a dependency-free
// metrics registry (counters, gauges, fixed-bucket histograms with
// quantile estimation) with Prometheus-text exposition, plus a bounded
// wide-event log holding one record per served request, training epoch,
// and job transition, linked to latency exemplars by a per-request ID.
//
// The serving path (internal/serve), the training-job manager
// (internal/jobs), and the trainer telemetry hook (core.ObserveTraining)
// all register into one Registry, so a single GET /metrics exposes
// request rates, micro-batch occupancy, device-clock utilization, queue
// depths, and per-job training progress — the Monitor stage any future
// auto-tuning of batch or pool sizes builds on.
//
// Everything is safe for concurrent use: counters and gauges are single
// atomics, histogram buckets are per-bucket atomics, and exposition never
// blocks a writer, so scraping /metrics cannot contend with a hot path.
package obs

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name=value metric dimension.
type Label struct{ Key, Value string }

// L is shorthand for Label{k, v}.
func L(k, v string) Label { return Label{Key: k, Value: v} }

// metricName validates metric and label names (the Prometheus charset).
var metricName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// atomicFloat is a float64 with atomic Add/Set/Load via bit casting.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Load() float64   { return math.Float64frombits(f.bits.Load()) }
func (f *atomicFloat) Store(v float64) { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) Add(d float64) {
	for {
		old := f.bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + d)
		if f.bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Counter is a monotonically increasing value.
type Counter struct{ v atomicFloat }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds d (d must be >= 0; negative deltas are ignored).
func (c *Counter) Add(d float64) {
	if d > 0 {
		c.v.Add(d)
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct{ v atomicFloat }

// Set stores v.
func (g *Gauge) Set(v float64) { g.v.Store(v) }

// Add adds d (which may be negative).
func (g *Gauge) Add(d float64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v.Load() }

// series is one labeled instance of a metric family; exactly one of the
// value fields is in use, per the family's type.
type series struct {
	labels []Label // sorted by key
	key    string  // rendered label signature

	ctr    *Counter
	gge    *Gauge
	fn     func() float64 // func-backed counter or gauge
	hist   *Histogram
	histFn func() HistogramSnapshot // func-backed histogram

	// The constant start of each exposition line, formatted once by
	// formatLines: `name{labels} ` for a counter or gauge; for a histogram
	// the _sum and _count line starts and, when its buckets are fixed, one
	// `name_bucket{labels,le="bound"} ` per bucket.
	line, sumLine, countLine []byte
	bucketLines              [][]byte
}

// formatLines fills the series' line prefixes for family name.
func (s *series) formatLines(name string) {
	prefix := func(suffix string) []byte {
		return []byte(name + suffix + s.key + " ")
	}
	switch {
	case s.hist != nil:
		s.bucketLines = make([][]byte, len(s.hist.bounds)+1)
		for i, v := range s.hist.bounds {
			s.bucketLines[i] = appendBucketPrefix(nil, name, s.key, appendFloat(nil, v))
		}
		s.bucketLines[len(s.hist.bounds)] = appendBucketPrefix(nil, name, s.key, []byte("+Inf"))
		fallthrough
	case s.histFn != nil:
		s.sumLine, s.countLine = prefix("_sum"), prefix("_count")
	default:
		s.line = prefix("")
	}
}

// family is all series sharing one metric name.
type family struct {
	name, help string
	typ        string    // "counter", "gauge", "histogram"
	bounds     []float64 // histogram families only
	funcBacked bool

	mu     sync.Mutex
	series map[string]*series
	order  []string
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Registration is get-or-create: registering the same
// name and label set again returns the existing metric, so subsystems
// sharing a registry (or a resumed job re-registering its gauges) compose
// without bookkeeping. The zero Registry is not usable; call NewRegistry.
type Registry struct {
	mu   sync.RWMutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// family returns (creating if needed) the family for name, panicking on a
// type or bucket mismatch — re-registering a name as a different kind of
// metric is a programming error, not a runtime condition.
func (r *Registry) family(name, help, typ string, bounds []float64, funcBacked bool) *family {
	if !metricName.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{
			name: name, help: help, typ: typ,
			bounds: bounds, funcBacked: funcBacked,
			series: make(map[string]*series),
		}
		r.fams[name] = f
		return f
	}
	if f.typ != typ || f.funcBacked != funcBacked {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, typ, f.typ))
	}
	if typ == "histogram" && !equalBounds(f.bounds, bounds) {
		panic(fmt.Sprintf("obs: histogram %q re-registered with different buckets", name))
	}
	return f
}

func equalBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// get returns (creating via mk if needed) the series for the label set.
func (f *family) get(labels []Label, mk func(ls []Label, key string) *series) *series {
	ls := normalizeLabels(labels)
	key := labelKey(ls)
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = mk(ls, key)
		s.formatLines(f.name)
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s
}

// normalizeLabels validates and sorts a copy of the label set.
func normalizeLabels(labels []Label) []Label {
	ls := append([]Label(nil), labels...)
	for _, l := range ls {
		if !metricName.MatchString(l.Key) {
			panic(fmt.Sprintf("obs: invalid label name %q", l.Key))
		}
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	return ls
}

// labelKey renders the sorted label set as its exposition signature,
// e.g. `{model="mnist",state="queued"}`, or "" for no labels.
func labelKey(ls []Label) string {
	if len(ls) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// Counter returns the counter for name and labels, registering it on
// first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	f := r.family(name, help, "counter", nil, false)
	s := f.get(labels, func(ls []Label, key string) *series {
		return &series{labels: ls, key: key, ctr: &Counter{}}
	})
	return s.ctr
}

// CounterFunc registers a counter whose value is read from f at
// exposition time (e.g. cumulative simulated-device busy seconds read
// from a clock). Re-registration keeps the first function.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	fam := r.family(name, help, "counter", nil, true)
	fam.get(labels, func(ls []Label, key string) *series {
		return &series{labels: ls, key: key, fn: fn}
	})
}

// Gauge returns the gauge for name and labels, registering it on first
// use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	f := r.family(name, help, "gauge", nil, false)
	s := f.get(labels, func(ls []Label, key string) *series {
		return &series{labels: ls, key: key, gge: &Gauge{}}
	})
	return s.gge
}

// GaugeFunc registers a gauge whose value is read from f at exposition
// time (e.g. a queue depth read from len(chan)). Re-registration keeps
// the first function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	fam := r.family(name, help, "gauge", nil, true)
	fam.get(labels, func(ls []Label, key string) *series {
		return &series{labels: ls, key: key, fn: fn}
	})
}

// Histogram returns the histogram for name and labels, registering it on
// first use with the given bucket upper bounds (sorted ascending, all
// finite; an overflow +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	for i, b := range bounds {
		if math.IsInf(b, 0) || math.IsNaN(b) {
			panic(fmt.Sprintf("obs: histogram %q bucket %d is not finite", name, i))
		}
		if i > 0 && bounds[i-1] >= b {
			panic(fmt.Sprintf("obs: histogram %q buckets not strictly increasing", name))
		}
	}
	bounds = append([]float64(nil), bounds...)
	f := r.family(name, help, "histogram", bounds, false)
	s := f.get(labels, func(ls []Label, key string) *series {
		return &series{labels: ls, key: key, hist: newHistogram(bounds)}
	})
	return s.hist
}

// HistogramFunc registers a histogram whose snapshot is read from fn at
// exposition time (e.g. the Go runtime's GC-pause distribution read from
// runtime/metrics). The snapshot's bucket layout may differ between
// scrapes; Re-registration keeps the first function.
func (r *Registry) HistogramFunc(name, help string, fn func() HistogramSnapshot, labels ...Label) {
	fam := r.family(name, help, "histogram", nil, true)
	fam.get(labels, func(ls []Label, key string) *series {
		return &series{labels: ls, key: key, histFn: fn}
	})
}

// Remove deletes the series with the exact label set from the family, so
// per-entity gauges (per-job epoch progress) can be evicted with their
// entity. Removing an absent series is a no-op.
func (r *Registry) Remove(name string, labels ...Label) {
	r.mu.RLock()
	f, ok := r.fams[name]
	r.mu.RUnlock()
	if !ok {
		return
	}
	key := labelKey(normalizeLabels(labels))
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.series[key]; !ok {
		return
	}
	delete(f.series, key)
	for i, k := range f.order {
		if k == key {
			f.order = append(f.order[:i], f.order[i+1:]...)
			break
		}
	}
}

// lookup returns the series with the exact label set, or nil.
func (r *Registry) lookup(name string, labels []Label) *series {
	r.mu.RLock()
	f, ok := r.fams[name]
	r.mu.RUnlock()
	if !ok {
		return nil
	}
	key := labelKey(normalizeLabels(labels))
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.series[key]
}

// Value reads the current value of the counter or gauge series with the
// exact label set (func-backed series are invoked). It is the read side a
// derived consumer — the SLO burn-rate evaluator — samples cumulative
// counters through, without holding any handle into the owning subsystem.
// The second return is false when no such scalar series exists.
func (r *Registry) Value(name string, labels ...Label) (float64, bool) {
	s := r.lookup(name, labels)
	if s == nil {
		return 0, false
	}
	switch {
	case s.fn != nil:
		return s.fn(), true
	case s.ctr != nil:
		return s.ctr.Value(), true
	case s.gge != nil:
		return s.gge.Value(), true
	}
	return 0, false
}

// SampleHistogram reads a point-in-time snapshot of the histogram series
// with the exact label set; false when no such histogram exists.
func (r *Registry) SampleHistogram(name string, labels ...Label) (HistogramSnapshot, bool) {
	s := r.lookup(name, labels)
	if s == nil {
		return HistogramSnapshot{}, false
	}
	switch {
	case s.hist != nil:
		return s.hist.Snapshot(), true
	case s.histFn != nil:
		return s.histFn(), true
	}
	return HistogramSnapshot{}, false
}

// NumSeries returns the number of registered series across all families
// (histograms count once) — the "registry non-empty" readiness signal.
func (r *Registry) NumSeries() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, f := range r.fams {
		f.mu.Lock()
		n += len(f.series)
		f.mu.Unlock()
	}
	return n
}

// WritePrometheus renders every family in Prometheus text exposition
// format (families sorted by name, series in registration order).
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.write(w, false)
}

// write renders every family in the requested exposition dialect into
// one pooled buffer and hands it to w in a single Write.
func (r *Registry) write(w io.Writer, om bool) error {
	r.mu.RLock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.fams[n])
	}
	r.mu.RUnlock()
	bp := renderBufs.Get().(*[]byte)
	b := (*bp)[:0]
	for _, f := range fams {
		b = f.appendTo(b, om)
	}
	_, err := w.Write(b)
	*bp = b
	renderBufs.Put(bp)
	return err
}

// renderBufs pools exposition buffers across scrapes.
var renderBufs = sync.Pool{New: func() any { return new([]byte) }}

// appendTo renders one family.
func (f *family) appendTo(b []byte, om bool) []byte {
	f.mu.Lock()
	ss := make([]*series, 0, len(f.order))
	for _, key := range f.order {
		ss = append(ss, f.series[key])
	}
	f.mu.Unlock()
	if len(ss) == 0 {
		return b
	}
	famName := f.name
	if om {
		famName = omFamilyName(f.name, f.typ)
	}
	if f.help != "" {
		b = append(b, "# HELP "...)
		b = append(b, famName...)
		b = append(b, ' ')
		b = append(b, f.help...)
		b = append(b, '\n')
	}
	b = append(b, "# TYPE "...)
	b = append(b, famName...)
	b = append(b, ' ')
	b = append(b, f.typ...)
	b = append(b, '\n')
	for _, s := range ss {
		b = s.appendTo(b, f.name, om)
	}
	return b
}

// appendTo renders one series.
func (s *series) appendTo(b []byte, name string, om bool) []byte {
	var v float64
	switch {
	case s.hist != nil:
		return s.hist.appendTo(b, s, om)
	case s.histFn != nil:
		return appendSnapshot(b, name, s, s.histFn())
	case s.fn != nil:
		v = s.fn()
	case s.ctr != nil:
		v = s.ctr.Value()
	default:
		v = s.gge.Value()
	}
	b = append(b, s.line...)
	b = appendFloat(b, v)
	return append(b, '\n')
}

// appendFloat renders a sample value the way Prometheus clients do.
func appendFloat(b []byte, v float64) []byte {
	switch {
	case math.IsInf(v, 1):
		return append(b, "+Inf"...)
	case math.IsInf(v, -1):
		return append(b, "-Inf"...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// ExpBuckets returns n bucket upper bounds starting at start and growing
// by factor: start, start·factor, start·factor², ...
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets wants start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}
