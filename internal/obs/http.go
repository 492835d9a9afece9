package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// MetricsHandler serves the union of the given registries — plus the
// process-wide Go runtime registry (RuntimeMetrics) — at any path it is
// mounted on. The format is content-negotiated: an Accept header naming
// application/openmetrics-text selects the OpenMetrics exposition (with
// histogram exemplars and a trailing `# EOF`), anything else the
// Prometheus text format 0.0.4. Duplicate registry pointers are written
// once, so a combined handler whose subsystems share one registry exposes
// each series exactly once.
func MetricsHandler(regs ...*Registry) http.Handler {
	uniq := dedupRegistries(append(append([]*Registry(nil), regs...), RuntimeMetrics()))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		om := AcceptsOpenMetrics(r.Header.Get("Accept"))
		if om {
			w.Header().Set("Content-Type", openMetricsContentType)
		} else {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		}
		for _, reg := range uniq {
			if err := reg.write(w, om); err != nil {
				return
			}
		}
		if om {
			io.WriteString(w, "# EOF\n")
		}
	})
}

func dedupRegistries(regs []*Registry) []*Registry {
	seen := make(map[*Registry]bool, len(regs))
	out := make([]*Registry, 0, len(regs))
	for _, r := range regs {
		if r == nil || seen[r] {
			continue
		}
		seen[r] = true
		out = append(out, r)
	}
	return out
}

// EventsHandler serves the union of the given event logs as JSON:
//
//	{"events": [...], "emitted": N, "dropped": N}
//
// newest first, filtered by query parameters:
//
//	?kind=      event family ("serve.request", "train.epoch", "job.state")
//	?model=     serving model name
//	?outcome=   request outcome or job state ("ok", "shed", "failed", ...)
//	?job=       training job id
//	?trace_id=  predict request ID (the trace_id a predict response echoed)
//	?level=     minimum severity ("info", "warn", "error")
//	?since=     an integer event sequence number (events after that cursor),
//	            an RFC 3339 instant, or a Go duration meaning "this long ago"
//	?limit=     at most N events (default 256)
//
// Nil logs are skipped; with no live logs the payload is empty, so the
// endpoint is safe to mount unconditionally.
func EventsHandler(logs ...*EventLog) http.Handler {
	seen := make(map[*EventLog]bool, len(logs))
	uniq := make([]*EventLog, 0, len(logs))
	for _, l := range logs {
		if l == nil || seen[l] {
			continue
		}
		seen[l] = true
		uniq = append(uniq, l)
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		q, err := parseEventQuery(r)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
			return
		}
		events := []Event{}
		var emitted, dropped uint64
		for _, l := range uniq {
			events = append(events, l.Query(q)...)
			emitted += l.Emitted()
			dropped += l.Dropped()
		}
		if len(uniq) > 1 {
			sortEventsNewestFirst(events)
			if q.Limit > 0 && len(events) > q.Limit {
				events = events[:q.Limit]
			}
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"events": events, "emitted": emitted, "dropped": dropped,
		})
	})
}

// defaultEventLimit bounds /debug/events responses with no explicit
// ?limit.
const defaultEventLimit = 256

// parseEventQuery builds an EventQuery from request parameters.
func parseEventQuery(r *http.Request) (EventQuery, error) {
	v := r.URL.Query()
	q := EventQuery{
		Kind:    v.Get("kind"),
		Model:   v.Get("model"),
		Outcome: v.Get("outcome"),
		Job:     v.Get("job"),
		TraceID: v.Get("trace_id"),
		Limit:   defaultEventLimit,
	}
	if lv := v.Get("level"); lv != "" {
		q.MinLevel = ParseLevel(lv)
	}
	if s := v.Get("since"); s != "" {
		if seq, err := strconv.ParseUint(s, 10, 64); err == nil {
			q.SinceSeq = seq
		} else if t, err := time.Parse(time.RFC3339, s); err == nil {
			q.Since = t
		} else if d, err := time.ParseDuration(s); err == nil && d >= 0 {
			q.Since = time.Now().Add(-d)
		} else {
			return q, &badParamError{param: "since", value: s,
				forms: `an integer event sequence number (as in each event's "seq" field; returns events after that cursor), an RFC 3339 timestamp, or a non-negative Go duration meaning "this long ago"`}
		}
	}
	if l := v.Get("limit"); l != "" {
		n, err := strconv.Atoi(l)
		if err != nil || n < 0 {
			return q, &badParamError{param: "limit", value: l, forms: "a non-negative integer"}
		}
		q.Limit = n
	}
	return q, nil
}

// badParamError reports an unparseable query parameter, documenting the
// accepted forms in the 400 body.
type badParamError struct{ param, value, forms string }

func (e *badParamError) Error() string {
	return "bad " + e.param + " parameter " + strconv.Quote(e.value) + " (want " + e.forms + ")"
}

// sortEventsNewestFirst orders events by time, newest first (insertion
// sort: per-log slices arrive mostly ordered).
func sortEventsNewestFirst(evs []Event) {
	for i := 1; i < len(evs); i++ {
		for j := i; j > 0 && evs[j].Time.After(evs[j-1].Time); j-- {
			evs[j], evs[j-1] = evs[j-1], evs[j]
		}
	}
}

// writeJSON writes a JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are already out; nothing useful left to do.
		_ = err
	}
}

// PprofHandler serves the standard net/http/pprof endpoints under
// /debug/pprof/ without touching http.DefaultServeMux, so profiling is
// exposed only where it is explicitly mounted (behind the CLI's -pprof
// flag).
func PprofHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
