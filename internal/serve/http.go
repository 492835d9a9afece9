package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"eigenpro/internal/mat"
	"eigenpro/internal/obs"
	"eigenpro/internal/obs/slo"
)

// Bounds on the serve HTTP surface, mirroring the /train hardening: both
// endpoints decode untrusted bodies, so size must be capped before JSON or
// gob materializes it. Variables rather than constants so tests can lower
// them without uploading hundreds of megabytes.
var (
	// maxPredictBodyBytes bounds the POST /v1/predict body. A legitimate
	// large batch (maxPredictRows MNIST-sized rows) stays well under it.
	maxPredictBodyBytes int64 = 8 << 20
	// maxModelBodyBytes bounds the PUT /v1/models/{name} gob body.
	maxModelBodyBytes int64 = 256 << 20
)

const (
	// maxPredictRows caps the rows of one predict request: each row fans
	// out as its own goroutine through the batcher.
	maxPredictRows = 4096
	// maxPredictFeatures caps the per-row feature dimension.
	maxPredictFeatures = 1 << 16
)

// NewHandler exposes a Server over HTTP JSON:
//
//	POST /v1/predict        {"model":"m","x":[...]} or {"model":"m","xs":[[...],...]}
//	GET  /v1/models         list registered model names
//	PUT  /v1/models/{name}  gob model body (core.SaveModel) → register/hot-swap
//	GET  /v1/stats          serving counters
//
// plus the observability and health endpoints NewMux documents. Each row
// of a predict request is routed through the batcher individually, so
// concurrent HTTP clients (and the rows of one multi-row request)
// coalesce into shared device-saturating micro-batches. Every predict
// request gets one trace ID, echoed in the X-Trace-Id response header
// and the trace_id response field; GET /debug/events?trace_id= returns
// the request's wide events, and the OpenMetrics latency bucket it
// landed in carries the ID as an exemplar.
func NewHandler(s *Server) http.Handler { return NewMux(s, nil) }

// Manager is what the shared observability endpoints read from a
// training-job manager served beside the Server; *jobs.Manager
// satisfies it (this package cannot import jobs).
type Manager interface {
	Metrics() *obs.Registry
	Events() *obs.EventLog
	SLO() *slo.Evaluator
	Flight() *obs.FlightRecorder
	Accepting() bool
}

// NewMux returns a mux serving the NewHandler endpoints of s plus, merged
// over s and m (m may be nil):
//
//	GET  /metrics       metric exposition (Prometheus text, or OpenMetrics
//	                    with exemplars under Accept: application/openmetrics-text)
//	GET  /debug/events  recent wide events (JSON; ?kind=&model=&job=&trace_id=&since=&limit=)
//	GET  /debug/slo     SLO objectives, burn rates, budget, alert history (JSON)
//	GET  /debug/flight  flight-recorder snapshots (JSON; ?snapshot= and ?file=)
//	GET  /healthz       liveness
//	GET  /readyz        readiness, checked in order: 503 "draining" once
//	                    Server.Drain has begun; 503 "not ready" while no
//	                    model is registered and m is nil or not accepting
//	                    jobs; 503 "degraded: slo page" while an SLO
//	                    objective pages; else 200 "ok"
//
// Callers add their own routes (the training-job endpoints) to it.
func NewMux(s *Server, m Manager) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/predict", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		handlePredict(s, w, r)
	})
	mux.HandleFunc("/v1/models", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			httpError(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		writeJSON(w, map[string]any{"models": s.Models()})
	})
	mux.HandleFunc("/v1/models/", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPut {
			httpError(w, http.StatusMethodNotAllowed, "PUT only")
			return
		}
		name := strings.TrimPrefix(r.URL.Path, "/v1/models/")
		if name == "" || strings.Contains(name, "/") {
			httpError(w, http.StatusBadRequest, "model name required")
			return
		}
		// The gob decoder may wrap the reader's error, so detect the
		// over-limit condition with a flagging reader rather than
		// errors.As on the decode error alone.
		body := &limitFlagReader{r: http.MaxBytesReader(w, r.Body, maxModelBodyBytes)}
		if err := s.LoadModel(name, body); err != nil {
			if body.tooBig {
				httpError(w, http.StatusRequestEntityTooLarge,
					"model body exceeds %d bytes", maxModelBodyBytes)
				return
			}
			httpError(w, http.StatusBadRequest, "load model: %v", err)
			return
		}
		writeJSON(w, map[string]any{"registered": name})
	})
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.Stats())
	})
	mountObservability(mux, s, m)
	return mux
}

// mountObservability mounts the NewMux observability and health
// endpoints, merging s's telemetry with m's when m is non-nil. A shared
// registry, event log, or evaluator is served once.
func mountObservability(mux *http.ServeMux, s *Server, m Manager) {
	regs := []*obs.Registry{s.Metrics()}
	logs := []*obs.EventLog{s.Events()}
	evs := []*slo.Evaluator{s.SLO()}
	flight := s.Flight()
	accepting := func() bool { return false }
	if m != nil {
		regs = append(regs, m.Metrics())
		logs = append(logs, m.Events())
		evs = append(evs, m.SLO())
		if flight == nil {
			flight = m.Flight()
		}
		accepting = m.Accepting
	}
	mux.Handle("/metrics", obs.MetricsHandler(regs...))
	mux.Handle("/debug/events", obs.EventsHandler(logs...))
	mux.Handle("/debug/slo", slo.Handler(evs...))
	mux.Handle("/debug/flight", obs.FlightHandler(flight))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		status, msg := http.StatusOK, "ok"
		switch {
		case s.Draining():
			status, msg = http.StatusServiceUnavailable, "draining"
		case len(s.Models()) == 0 && !accepting():
			status, msg = http.StatusServiceUnavailable, "not ready"
		case slo.AnyPaging(evs...):
			status, msg = http.StatusServiceUnavailable, "degraded: slo page"
		}
		w.WriteHeader(status)
		fmt.Fprintln(w, msg)
	})
}

// predictRequest is the POST /v1/predict body; X carries one query, XS a
// batch. Model defaults to "default".
type predictRequest struct {
	Model string      `json:"model,omitempty"`
	X     []float64   `json:"x,omitempty"`
	XS    [][]float64 `json:"xs,omitempty"`
}

// predictResponse is the POST /v1/predict reply: one output row and argmax
// label per query row. TraceID is the request's ID, also on its wide
// events at /debug/events?trace_id=.
type predictResponse struct {
	Model   string      `json:"model"`
	Y       [][]float64 `json:"y"`
	Labels  []int       `json:"labels"`
	TraceID string      `json:"trace_id,omitempty"`
}

func handlePredict(s *Server, w http.ResponseWriter, r *http.Request) {
	var req predictRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxPredictBodyBytes)).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
			return
		}
		httpError(w, http.StatusBadRequest, "bad json: %v", err)
		return
	}
	if req.Model == "" {
		req.Model = "default"
	}
	rows := req.XS
	if len(req.X) > 0 {
		rows = append(rows, req.X)
	}
	if len(rows) == 0 {
		httpError(w, http.StatusBadRequest, "empty request: provide x or xs")
		return
	}
	if len(rows) > maxPredictRows {
		httpError(w, http.StatusRequestEntityTooLarge, "%d rows exceeds the %d-row cap", len(rows), maxPredictRows)
		return
	}
	for i, row := range rows {
		if len(row) > maxPredictFeatures {
			httpError(w, http.StatusRequestEntityTooLarge,
				"row %d has %d features, cap is %d", i, len(row), maxPredictFeatures)
			return
		}
	}
	// One trace ID covers all rows of the request, carried to
	// Server.Predict through the context and echoed in the header and
	// body so the caller can find the request's wide events.
	id := obs.NewTraceID()
	ctx := obs.WithTraceID(r.Context(), id)
	w.Header().Set("X-Trace-Id", id)
	resp := predictResponse{
		Model:   req.Model,
		Y:       make([][]float64, len(rows)),
		Labels:  make([]int, len(rows)),
		TraceID: id,
	}
	// Rows go through Server.Predict concurrently so they coalesce into
	// micro-batches with each other and with other in-flight requests.
	errs := make([]error, len(rows))
	var wg sync.WaitGroup
	for i, x := range rows {
		wg.Add(1)
		go func(i int, x []float64) {
			defer wg.Done()
			out, err := s.Predict(ctx, req.Model, x)
			if err != nil {
				errs[i] = err
				return
			}
			resp.Y[i] = out
			resp.Labels[i] = mat.ArgMaxRow(out)
		}(i, x)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			httpError(w, statusFor(err), "%v", err)
			return
		}
	}
	writeJSON(w, resp)
}

// limitFlagReader records whether the wrapped reader (a MaxBytesReader)
// reported its limit, surviving any error wrapping by downstream decoders.
type limitFlagReader struct {
	r      io.Reader
	tooBig bool
}

func (l *limitFlagReader) Read(p []byte) (int, error) {
	n, err := l.r.Read(p)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			l.tooBig = true
		}
	}
	return n, err
}

// statusFor maps request-path errors to HTTP statuses.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrOverloaded), errors.Is(err, ErrShed):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrUnknownModel):
		return http.StatusNotFound
	case errors.Is(err, ErrDeadlineExceeded), errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, ErrClosed), errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are already out; nothing useful left to do.
		_ = err
	}
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
