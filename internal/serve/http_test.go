package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"eigenpro/internal/core"
	"eigenpro/internal/mat"
)

func TestHTTPPredictAndStats(t *testing.T) {
	m := testModel(25, 4, 3, 11)
	s := newTestServer(t, Config{})
	if err := s.Register("default", m); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	body, _ := json.Marshal(predictRequest{XS: [][]float64{
		{0.1, 0.2, 0.3, 0.4},
		{0.5, 0.6, 0.7, 0.8},
	}})
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status %d", resp.StatusCode)
	}
	var pr predictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Y) != 2 || len(pr.Labels) != 2 {
		t.Fatalf("bad response shape: %+v", pr)
	}
	want := m.Predict(mat.StackRows([][]float64{{0.1, 0.2, 0.3, 0.4}, {0.5, 0.6, 0.7, 0.8}}, 4))
	for i := range pr.Y {
		if !rowNear(pr.Y[i], want.RowView(i)) {
			t.Fatalf("row %d: got %v want %v", i, pr.Y[i], want.RowView(i))
		}
		if pr.Labels[i] != mat.ArgMaxRow(want.RowView(i)) {
			t.Fatalf("row %d label: got %d", i, pr.Labels[i])
		}
	}

	if st := s.Stats(); st.Requests != 2 {
		t.Fatalf("stats after a 2-row predict: %+v", st)
	}
}

func TestHTTPModelUploadHotSwap(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	m := testModel(12, 3, 2, 13)
	var buf bytes.Buffer
	if err := core.SaveModel(&buf, m); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/models/fresh", bytes.NewReader(buf.Bytes()))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload status %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var models struct{ Models []string }
	if err := json.NewDecoder(resp.Body).Decode(&models); err != nil {
		t.Fatal(err)
	}
	if len(models.Models) != 1 || models.Models[0] != "fresh" {
		t.Fatalf("models list: %v", models.Models)
	}

	body, _ := json.Marshal(predictRequest{Model: "fresh", X: []float64{1, 2, 3}})
	resp, err = http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict against uploaded model: status %d", resp.StatusCode)
	}
}

func TestHTTPErrors(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/predict", "application/json",
		strings.NewReader(`{"model":"ghost","x":[1]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model over HTTP: status %d, want 404", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty request: status %d, want 400", resp.StatusCode)
	}

	// A finite row whose sum of squares overflows is a 400 with a message,
	// not a 200 with an empty body.
	if err := s.Register("default", testModel(5, 3, 2, 4)); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/v1/predict", "application/json",
		strings.NewReader(`{"x":[1e308,1e308,1e308]}`))
	if err != nil {
		t.Fatal(err)
	}
	var e struct{ Error string }
	err = json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || err != nil || e.Error == "" {
		t.Fatalf("overflowing row: status %d, error %q (%v), want 400 with a message",
			resp.StatusCode, e.Error, err)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}
}

// TestWriteJSONEncodeFailure checks that a response JSON cannot carry is
// a 500 with an error body, not a 200 with no bytes.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, map[string]float64{"y": math.NaN()})
	var e struct{ Error string }
	if err := json.Unmarshal(rec.Body.Bytes(), &e); rec.Code != http.StatusInternalServerError || err != nil || e.Error == "" {
		t.Fatalf("NaN response: status %d, body %q", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	writeJSON(rec, map[string]float64{"y": 1})
	if rec.Code != http.StatusOK || rec.Body.String() != "{\"y\":1}\n" {
		t.Fatalf("finite response: status %d, body %q", rec.Code, rec.Body.String())
	}
}

// TestHTTPBodyLimits pins the 413 surface: oversized or over-shaped bodies
// on both untrusted-decode endpoints are refused before they materialize.
func TestHTTPBodyLimits(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	post := func(body []byte) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	// Row-count cap: one row over maxPredictRows. The cap is checked before
	// model lookup, so no registration is needed.
	xs := make([][]float64, maxPredictRows+1)
	for i := range xs {
		xs[i] = []float64{0}
	}
	body, _ := json.Marshal(predictRequest{XS: xs})
	if code := post(body); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("rows over cap: status %d, want 413", code)
	}

	// Feature-dimension cap: one feature over maxPredictFeatures.
	body, _ = json.Marshal(predictRequest{X: make([]float64, maxPredictFeatures+1)})
	if code := post(body); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("features over cap: status %d, want 413", code)
	}

	// Byte cap on the predict body, lowered so the test stays small.
	defer func(v int64) { maxPredictBodyBytes = v }(maxPredictBodyBytes)
	maxPredictBodyBytes = 64
	body, _ = json.Marshal(predictRequest{XS: [][]float64{make([]float64, 64)}})
	if code := post(body); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("predict body over byte cap: status %d, want 413", code)
	}

	// Byte cap on the model upload body: a valid gob just over the lowered
	// limit must come back 413, not 400, even though gob wraps the read
	// error.
	defer func(v int64) { maxModelBodyBytes = v }(maxModelBodyBytes)
	maxModelBodyBytes = 128
	var buf bytes.Buffer
	if err := core.SaveModel(&buf, testModel(64, 8, 4, 17)); err != nil {
		t.Fatal(err)
	}
	if buf.Len() <= int(maxModelBodyBytes) {
		t.Fatalf("test model gob is %d bytes, need > %d", buf.Len(), maxModelBodyBytes)
	}
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/models/big", bytes.NewReader(buf.Bytes()))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("model body over byte cap: status %d, want 413", resp.StatusCode)
	}
	if got := s.Models(); len(got) != 0 {
		t.Fatalf("oversized model was registered anyway: %v", got)
	}
}
