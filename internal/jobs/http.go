package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"

	"eigenpro/internal/core"
	"eigenpro/internal/data"
	"eigenpro/internal/kernel"
	"eigenpro/internal/mat"
)

// NewHandler exposes a Manager over HTTP JSON:
//
//	POST   /train             submit a training job → {"id":"job-1", ...}
//	GET    /jobs              list all jobs with status and metrics
//	GET    /jobs/{id}         one job's status
//	POST   /jobs/{id}/cancel  stop at the next epoch boundary (checkpointing)
//	POST   /jobs/{id}/resume  continue a cancelled job bit-for-bit
//	DELETE /jobs/{id}         evict a terminal job (frees data and model)
//
// Combined with the serving handler on one mux (eigenpro.NewTrainServeHandler),
// a model trained via POST /train is immediately servable via POST
// /v1/predict under the submitted name — the full train → serve loop over
// one server. That mux also serves the manager's metrics, events, SLO
// status, and readiness (serve.NewMux); a job's history is its job.state
// and train.epoch events at GET /debug/events?job=<id>.
func NewHandler(m *Manager) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/train", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		handleTrain(m, w, r)
	})
	mux.HandleFunc("/jobs", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			httpError(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		writeJSON(w, map[string]any{"jobs": m.Jobs()})
	})
	mux.HandleFunc("/jobs/", func(w http.ResponseWriter, r *http.Request) {
		handleJob(m, w, r)
	})
	return mux
}

// trainRequest is the POST /train body. Training data comes either from a
// synthetic dataset preset (dataset + n + data_seed) or inline rows (x with
// one-hot y, or x with labels + classes).
type trainRequest struct {
	// Name is the model name registered on completion (default: job id).
	Name string `json:"name,omitempty"`

	// Dataset preset: mnist, cifar10, svhn, timit, susy, imagenet.
	Dataset  string `json:"dataset,omitempty"`
	N        int    `json:"n,omitempty"`
	DataSeed int64  `json:"data_seed,omitempty"`

	// Inline data (alternative to Dataset).
	X       [][]float64 `json:"x,omitempty"`
	Y       [][]float64 `json:"y,omitempty"`
	Labels  []int       `json:"labels,omitempty"`
	Classes int         `json:"classes,omitempty"`

	// Training configuration; zero values select the paper's automatic
	// choices.
	Kernel       string  `json:"kernel,omitempty"` // gaussian (default), laplacian, cauchy, matern32, matern52
	Sigma        float64 `json:"sigma,omitempty"`  // default 5
	Method       string  `json:"method,omitempty"` // eigenpro2 (default), eigenpro1, sgd
	Epochs       int     `json:"epochs,omitempty"` // default 5
	S            int     `json:"s,omitempty"`
	Q            int     `json:"q,omitempty"`
	Batch        int     `json:"batch,omitempty"`
	Eta          float64 `json:"eta,omitempty"`
	StopTrainMSE float64 `json:"stop_train_mse,omitempty"`
	Seed         int64   `json:"seed,omitempty"`
}

// Bounds on HTTP-submitted workloads: the endpoint materializes synthetic
// datasets server-side, so untrusted sizes must be clamped.
const (
	maxTrainSamples = 100000
	maxTrainEpochs  = 10000
	maxTrainClasses = 10000
	// maxTrainCells bounds the one-hot target allocation rows x classes:
	// the per-field bounds alone would still admit an ~8 GB matrix from a
	// small request.
	maxTrainCells = 10_000_000
	// maxTrainBodyBytes bounds the request body before JSON decoding
	// materializes it.
	maxTrainBodyBytes = 64 << 20
)

// decodeTrainRequest decodes and validates the JSON body without
// materializing any training data (the fuzz harness drives this function).
func decodeTrainRequest(r io.Reader) (trainRequest, error) {
	var req trainRequest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, fmt.Errorf("bad json: %w", err)
	}
	if req.Epochs == 0 {
		req.Epochs = 5
	}
	if req.Epochs < 1 || req.Epochs > maxTrainEpochs {
		return req, fmt.Errorf("epochs %d out of [1, %d]", req.Epochs, maxTrainEpochs)
	}
	if req.Sigma == 0 {
		req.Sigma = 5
	}
	if req.Sigma < 0 {
		return req, fmt.Errorf("sigma %v must be > 0", req.Sigma)
	}
	if req.Kernel == "" {
		req.Kernel = "gaussian"
	}
	if _, err := kernel.ByName(req.Kernel, req.Sigma); err != nil {
		return req, err
	}
	switch req.Method {
	case "", "eigenpro2", "eigenpro1", "sgd":
	default:
		return req, fmt.Errorf("unknown method %q", req.Method)
	}
	hasInline := len(req.X) > 0
	switch {
	case hasInline && req.Dataset != "":
		return req, errors.New("provide either dataset or inline x, not both")
	case hasInline:
		cols := len(req.X[0])
		if cols == 0 {
			return req, errors.New("inline x rows must be non-empty")
		}
		for i, row := range req.X {
			if len(row) != cols {
				return req, fmt.Errorf("inline x row %d has %d features, row 0 has %d", i, len(row), cols)
			}
		}
		if len(req.X) > maxTrainSamples {
			return req, fmt.Errorf("inline x has %d rows, max %d", len(req.X), maxTrainSamples)
		}
		switch {
		case len(req.Y) > 0:
			if len(req.Y) != len(req.X) {
				return req, fmt.Errorf("%d x rows with %d y rows", len(req.X), len(req.Y))
			}
			lcols := len(req.Y[0])
			if lcols == 0 {
				return req, errors.New("inline y rows must be non-empty")
			}
			for i, row := range req.Y {
				if len(row) != lcols {
					return req, fmt.Errorf("inline y row %d has %d outputs, row 0 has %d", i, len(row), lcols)
				}
			}
		case len(req.Labels) > 0:
			if len(req.Labels) != len(req.X) {
				return req, fmt.Errorf("%d x rows with %d labels", len(req.X), len(req.Labels))
			}
			if req.Classes < 2 || req.Classes > maxTrainClasses {
				// The one-hot target matrix is rows x classes, so an
				// unbounded class count would let a tiny request force a
				// huge allocation.
				return req, fmt.Errorf("labels need classes in [2, %d], got %d", maxTrainClasses, req.Classes)
			}
			if len(req.X)*req.Classes > maxTrainCells {
				return req, fmt.Errorf("%d rows x %d classes exceeds %d one-hot cells", len(req.X), req.Classes, maxTrainCells)
			}
			for i, lbl := range req.Labels {
				if lbl < 0 || lbl >= req.Classes {
					return req, fmt.Errorf("label %d at row %d out of [0, %d)", lbl, i, req.Classes)
				}
			}
		default:
			return req, errors.New("inline x needs y or labels+classes")
		}
	default:
		if req.Dataset == "" {
			return req, errors.New("provide dataset or inline x")
		}
		if !slices.Contains(data.PresetNames(), req.Dataset) {
			return req, fmt.Errorf("unknown dataset %q (valid: %s)", req.Dataset, strings.Join(data.PresetNames(), ", "))
		}
		if req.N == 0 {
			req.N = 1000
		}
		if req.N < 16 || req.N > maxTrainSamples {
			return req, fmt.Errorf("n %d out of [16, %d]", req.N, maxTrainSamples)
		}
	}
	return req, nil
}

// spec materializes the validated request into a job spec (this is where a
// dataset preset is generated).
func (req trainRequest) spec() (Spec, error) {
	k, err := kernel.ByName(req.Kernel, req.Sigma)
	if err != nil {
		return Spec{}, err
	}
	var method core.Method
	switch req.Method {
	case "", "eigenpro2":
		method = core.MethodEigenPro2
	case "eigenpro1":
		method = core.MethodEigenPro1
	case "sgd":
		method = core.MethodSGD
	}

	var x, y *mat.Dense
	if len(req.X) > 0 {
		cols := len(req.X[0])
		x = mat.StackRows(req.X, cols)
		if len(req.Y) > 0 {
			y = mat.StackRows(req.Y, len(req.Y[0]))
		} else {
			y = mat.NewDense(len(req.Labels), req.Classes)
			for i, lbl := range req.Labels {
				y.Set(i, lbl, 1)
			}
		}
	} else {
		ds, err := data.ByName(req.Dataset, req.N, req.DataSeed)
		if err != nil {
			return Spec{}, err
		}
		x, y = ds.X, ds.Y
	}
	return Spec{
		Name: req.Name,
		Config: core.Config{
			Kernel:       k,
			Method:       method,
			Epochs:       req.Epochs,
			S:            req.S,
			Q:            req.Q,
			Batch:        req.Batch,
			Eta:          req.Eta,
			StopTrainMSE: req.StopTrainMSE,
			Seed:         req.Seed,
		},
		X: x,
		Y: y,
	}, nil
}

func handleTrain(m *Manager, w http.ResponseWriter, r *http.Request) {
	req, err := decodeTrainRequest(http.MaxBytesReader(w, r.Body, maxTrainBodyBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	spec, err := req.spec()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	id, err := m.Submit(spec)
	if err != nil {
		httpError(w, statusFor(err), "%v", err)
		return
	}
	info, _ := m.Job(id)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	writeJSONBody(w, info)
}

// handleJob routes /jobs/{id} and /jobs/{id}/(cancel|resume).
func handleJob(m *Manager, w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/jobs/")
	id, action, _ := strings.Cut(rest, "/")
	if id == "" {
		httpError(w, http.StatusBadRequest, "job id required")
		return
	}
	switch action {
	case "":
		switch r.Method {
		case http.MethodGet:
			info, ok := m.Job(id)
			if !ok {
				httpError(w, http.StatusNotFound, "%v: %q", ErrUnknownJob, id)
				return
			}
			writeJSON(w, info)
		case http.MethodDelete:
			if err := m.Delete(id); err != nil {
				httpError(w, statusFor(err), "%v", err)
				return
			}
			writeJSON(w, map[string]string{"deleted": id})
		default:
			httpError(w, http.StatusMethodNotAllowed, "GET or DELETE only")
		}
	case "cancel", "resume":
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		var err error
		if action == "cancel" {
			err = m.Cancel(id)
		} else {
			err = m.Resume(id)
		}
		if err != nil {
			httpError(w, statusFor(err), "%v", err)
			return
		}
		info, _ := m.Job(id)
		writeJSON(w, info)
	default:
		httpError(w, http.StatusNotFound, "unknown action %q", action)
	}
}

// statusFor maps lifecycle errors to HTTP statuses.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrUnknownJob):
		return http.StatusNotFound
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusConflict
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	writeJSONBody(w, v)
}

func writeJSONBody(w http.ResponseWriter, v any) {
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
