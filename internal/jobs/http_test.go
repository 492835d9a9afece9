package jobs

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func postJSON(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func getJSON(t *testing.T, h http.Handler, path string, v any) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if v != nil && rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
			t.Fatalf("GET %s: %v (%s)", path, err, rec.Body.String())
		}
	}
	return rec
}

func TestHTTPTrainLifecycle(t *testing.T) {
	m := New(Config{Workers: 1})
	defer m.Close()
	h := NewHandler(m)

	rec := postJSON(t, h, "/train", `{"name":"susy","dataset":"susy","n":200,"epochs":2,"s":64,"sigma":3}`)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("POST /train: %d %s", rec.Code, rec.Body.String())
	}
	var info Info
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.ID == "" || info.Name != "susy" {
		t.Fatalf("info %+v", info)
	}

	// Status endpoints.
	var listing struct {
		Jobs []Info `json:"jobs"`
	}
	if rec := getJSON(t, h, "/jobs", &listing); rec.Code != http.StatusOK || len(listing.Jobs) != 1 {
		t.Fatalf("GET /jobs: %d %+v", rec.Code, listing)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		var cur Info
		if rec := getJSON(t, h, "/jobs/"+info.ID, &cur); rec.Code != http.StatusOK {
			t.Fatalf("GET /jobs/{id}: %d", rec.Code)
		} else if terminal(cur.State) {
			if cur.State != StateDone {
				t.Fatalf("job ended %q (%s)", cur.State, cur.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Evict the terminal job over HTTP.
	req := httptest.NewRequest(http.MethodDelete, "/jobs/"+info.ID, nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("DELETE /jobs/{id}: %d %s", rec.Code, rec.Body.String())
	}
	if rec := getJSON(t, h, "/jobs/"+info.ID, nil); rec.Code != http.StatusNotFound {
		t.Fatalf("deleted job still served: %d", rec.Code)
	}
}

func TestHTTPCancelResume(t *testing.T) {
	m := New(Config{Workers: 1})
	defer m.Close()
	h := NewHandler(m)

	rec := postJSON(t, h, "/train", `{"dataset":"susy","n":200,"epochs":100,"s":64,"sigma":3}`)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("POST /train: %d %s", rec.Code, rec.Body.String())
	}
	var info Info
	json.Unmarshal(rec.Body.Bytes(), &info)

	// Wait for progress, then cancel over HTTP.
	deadline := time.Now().Add(60 * time.Second)
	for {
		var cur Info
		getJSON(t, h, "/jobs/"+info.ID, &cur)
		if cur.Epoch >= 1 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if rec := postJSON(t, h, "/jobs/"+info.ID+"/cancel", ""); rec.Code != http.StatusOK {
		t.Fatalf("cancel: %d %s", rec.Code, rec.Body.String())
	}
	if got, err := m.Wait(info.ID); err != nil || got.State != StateCancelled {
		t.Fatalf("after cancel: %+v err %v", got, err)
	}
	if rec := postJSON(t, h, "/jobs/"+info.ID+"/resume", ""); rec.Code != http.StatusOK {
		t.Fatalf("resume: %d %s", rec.Code, rec.Body.String())
	}
	var cur Info
	getJSON(t, h, "/jobs/"+info.ID, &cur)
	if terminal(cur.State) && cur.State != StateDone {
		t.Fatalf("resumed state %q", cur.State)
	}
}

func TestHTTPErrors(t *testing.T) {
	m := New(Config{Workers: 1})
	defer m.Close()
	h := NewHandler(m)

	cases := []struct {
		method, path, body string
		want               int
	}{
		{http.MethodGet, "/train", "", http.StatusMethodNotAllowed},
		{http.MethodPost, "/train", "{", http.StatusBadRequest},
		{http.MethodPost, "/train", `{"dataset":"nope"}`, http.StatusBadRequest},
		{http.MethodPost, "/train", `{"dataset":"susy","n":2}`, http.StatusBadRequest},
		{http.MethodPost, "/train", `{"dataset":"susy","epochs":-1}`, http.StatusBadRequest},
		{http.MethodPost, "/train", `{"x":[[1,2],[1]]}`, http.StatusBadRequest},
		{http.MethodPost, "/train", `{"x":[[1,2]],"labels":[0]}`, http.StatusBadRequest},
		{http.MethodPost, "/train", `{"x":[[1,2]],"labels":[0],"classes":2000000000}`, http.StatusBadRequest},
		{http.MethodPost, "/train", `{"unknown_field":1}`, http.StatusBadRequest},
		{http.MethodPost, "/jobs", "", http.StatusMethodNotAllowed},
		{http.MethodGet, "/jobs/absent", "", http.StatusNotFound},
		{http.MethodDelete, "/jobs/absent", "", http.StatusNotFound},
		{http.MethodPut, "/jobs/absent", "", http.StatusMethodNotAllowed},
		{http.MethodPost, "/jobs/absent/cancel", "", http.StatusNotFound},
		{http.MethodPost, "/jobs/absent/resume", "", http.StatusNotFound},
		{http.MethodGet, "/jobs/absent/cancel", "", http.StatusMethodNotAllowed},
		{http.MethodPost, "/jobs/absent/nuke", "", http.StatusNotFound},
		{http.MethodGet, "/jobs/", "", http.StatusBadRequest},
	}
	for _, c := range cases {
		req := httptest.NewRequest(c.method, c.path, strings.NewReader(c.body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != c.want {
			t.Errorf("%s %s: %d, want %d (%s)", c.method, c.path, rec.Code, c.want, rec.Body.String())
		}
	}
}

// TestHTTPRejectsNonFiniteRows submits inline rows whose sum of squares
// overflows (40 rows of 4 features, every other one 1e308): admission
// answers 400 naming the row and queues no job, where the job used to be
// accepted and then fail inside the eigensolver.
func TestHTTPRejectsNonFiniteRows(t *testing.T) {
	m := New(Config{Workers: 1})
	defer m.Close()
	h := NewHandler(m)

	var sb strings.Builder
	sb.WriteString(`{"name":"huge","epochs":2,"classes":2,"x":[`)
	for i := 0; i < 40; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(`[1e308,0.5,1e308,0.5]`)
	}
	sb.WriteString(`],"labels":[`)
	for i := 0; i < 40; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString([]string{"0", "1"}[i%2])
	}
	sb.WriteString(`]}`)
	rec := postJSON(t, h, "/train", sb.String())
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "inline x row 0") {
		t.Fatalf("POST /train with overflowing rows: %d %s, want 400 naming row 0", rec.Code, rec.Body.String())
	}
	if jobs := m.Jobs(); len(jobs) != 0 {
		t.Fatalf("rejected request queued %d job(s)", len(jobs))
	}

	// JSON cannot carry NaN or Inf, so the rule itself is checked directly.
	x := [][]float64{{1, 2}, {3, 4}}
	for _, c := range []struct {
		x, y [][]float64
		want string
	}{
		{x, [][]float64{{1}, {0}}, ""},
		{[][]float64{{1, 2}, {math.NaN(), 0}}, nil, "inline x row 1"},
		{[][]float64{{math.Inf(-1), 0}}, nil, "inline x row 0"},
		{x, [][]float64{{1}, {math.NaN()}}, "inline y row 1: output 0"},
		{x, [][]float64{{0, math.Inf(1)}, {1, 0}}, "inline y row 0: output 1"},
	} {
		err := checkFinite(c.x, c.y)
		if (err == nil) != (c.want == "") || err != nil && !strings.Contains(err.Error(), c.want) {
			t.Errorf("checkFinite(%v, %v) = %v, want %q", c.x, c.y, err, c.want)
		}
	}
}

// TestHTTPInlineData trains on inline rows with labels — the path an
// external client with real data uses.
func TestHTTPInlineData(t *testing.T) {
	m := New(Config{Workers: 1})
	defer m.Close()
	h := NewHandler(m)

	// A tiny two-class problem, one-hot via labels+classes.
	var sb strings.Builder
	sb.WriteString(`{"name":"inline","epochs":2,"sigma":2,"s":8,"classes":2,"x":[`)
	for i := 0; i < 24; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		if i%2 == 0 {
			sb.WriteString(`[0.1,0.2]`)
		} else {
			sb.WriteString(`[0.9,0.8]`)
		}
	}
	sb.WriteString(`],"labels":[`)
	for i := 0; i < 24; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		if i%2 == 0 {
			sb.WriteString("0")
		} else {
			sb.WriteString("1")
		}
	}
	sb.WriteString(`]}`)

	rec := postJSON(t, h, "/train", sb.String())
	if rec.Code != http.StatusAccepted {
		t.Fatalf("POST /train inline: %d %s", rec.Code, rec.Body.String())
	}
	var info Info
	json.Unmarshal(rec.Body.Bytes(), &info)
	got, err := m.Wait(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone {
		t.Fatalf("inline job %q (%s)", got.State, got.Error)
	}
}
