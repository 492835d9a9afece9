package obs

import (
	"io"
	"strconv"
	"strings"
	"time"
)

// Exemplar is one concrete observation attached to a histogram bucket: the
// observed value, the request that produced it, and when. Exposed only in
// the OpenMetrics exposition (`_bucket ... # {trace_id="..."} v ts`), it
// is the metrics→events link: a p99 spike in a bucket names a request
// whose wide event at /debug/events?trace_id= (queue wait, device time,
// micro-batch) explains it.
type Exemplar struct {
	// Value is the observed value (e.g. the request latency in seconds).
	Value float64
	// TraceID names the request that produced the observation.
	TraceID string
	// Time is when the observation happened.
	Time time.Time
}

// appendTo appends the exemplar's OpenMetrics bucket-line suffix,
// ` # {trace_id="..."} value timestamp`, the timestamp in Unix seconds
// with millisecond precision the way OpenMetrics clients commonly render
// it.
func (e *Exemplar) appendTo(b []byte) []byte {
	b = append(b, ` # {trace_id="`...)
	b = append(b, escapeLabel(e.TraceID)...)
	b = append(b, `"} `...)
	b = appendFloat(b, e.Value)
	b = append(b, ' ')
	return strconv.AppendFloat(b, float64(e.Time.UnixMilli())/1e3, 'f', 3, 64)
}

// openMetricsContentType is the content type the OpenMetrics exposition is
// served under (content-negotiated by MetricsHandler via the Accept
// header).
const openMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// AcceptsOpenMetrics reports whether an Accept header asks for the
// OpenMetrics exposition format.
func AcceptsOpenMetrics(accept string) bool {
	return strings.Contains(accept, "application/openmetrics-text")
}

// WriteOpenMetrics renders every family in OpenMetrics text format:
// counter families drop their `_total` suffix in metadata (samples keep
// it), histogram bucket lines carry their exemplars, and the exposition is
// terminated by `# EOF`. Like WritePrometheus it never blocks a writer.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	if err := r.write(w, true); err != nil {
		return err
	}
	_, err := io.WriteString(w, "# EOF\n")
	return err
}

// omFamilyName returns the OpenMetrics metric-family name: counters are
// named without the `_total` suffix their samples carry.
func omFamilyName(name, typ string) string {
	if typ == "counter" {
		return strings.TrimSuffix(name, "_total")
	}
	return name
}
