package obs

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// flightFixture builds a recorder over a temp dir with an event log
// carrying known content, so snapshot files can be checked.
func flightFixture(t *testing.T, cfg FlightConfig) (*FlightRecorder, *EventLog) {
	t.Helper()
	log := NewEventLog(64)
	log.Emit(Event{Kind: KindServeRequest, Model: "m", Outcome: "ok"})
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	cfg.Events = log
	cfg.Registries = []*Registry{NewRegistry()}
	f, err := NewFlightRecorder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f, log
}

// TestFlightCaptureContents captures one snapshot (with a real, short CPU
// profile) and checks the full file set, with meta.json present as the
// completeness marker and the trigger metadata merged in.
func TestFlightCaptureContents(t *testing.T) {
	f, log := flightFixture(t, FlightConfig{CPUProfile: 50 * time.Millisecond})
	dir, ok := f.Capture("latency breach", map[string]any{"burn_fast": 20.5})
	if !ok {
		t.Fatal("capture rejected")
	}
	if filepath.Dir(dir) != f.Dir() || !strings.HasSuffix(dir, "-latency-breach") {
		t.Fatalf("snapshot dir %q not under %q with slugged reason", dir, f.Dir())
	}
	f.Wait()
	if f.Captures() != 1 || f.Skipped() != 0 {
		t.Fatalf("captures/skipped = %d/%d, want 1/0", f.Captures(), f.Skipped())
	}
	for _, name := range []string{
		"cpu.pprof", "heap.pprof", "goroutines.txt",
		"events.jsonl", "metrics.prom", "metrics.om", "meta.json",
	} {
		info, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("snapshot missing %s: %v", name, err)
		}
		if info.Size() == 0 && name != "events.jsonl" {
			t.Fatalf("snapshot %s is empty", name)
		}
	}
	raw, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	var meta map[string]any
	if err := json.Unmarshal(raw, &meta); err != nil {
		t.Fatal(err)
	}
	if meta["reason"] != "latency breach" || meta["burn_fast"] != 20.5 {
		t.Fatalf("meta.json = %v, want reason and trigger metadata", meta)
	}
	if _, hasProblems := meta["problems"]; hasProblems {
		t.Fatalf("capture reported problems: %v", meta["problems"])
	}
	ev, err := os.ReadFile(filepath.Join(dir, "events.jsonl"))
	if err != nil || !strings.Contains(string(ev), KindServeRequest) {
		t.Fatalf("events.jsonl missing the wide event: %v %q", err, ev)
	}
	om, err := os.ReadFile(filepath.Join(dir, "metrics.om"))
	if err != nil || !strings.HasSuffix(string(om), "# EOF\n") {
		t.Fatalf("metrics.om not OpenMetrics-terminated: %v", err)
	}

	// The capture announced itself as a wide event.
	evs := log.Query(EventQuery{Kind: KindFlight})
	if len(evs) != 1 || evs[0].Path != dir || evs[0].Level != LevelWarn {
		t.Fatalf("flight.snapshot event = %+v", evs)
	}
}

// TestFlightRateLimit checks the two drop paths: a trigger inside
// MinInterval and a trigger while a capture is in flight.
func TestFlightRateLimit(t *testing.T) {
	f, _ := flightFixture(t, FlightConfig{CPUProfile: -1, MinInterval: time.Hour})
	if _, ok := f.Capture("first", nil); !ok {
		t.Fatal("first capture rejected")
	}
	f.Wait()
	if _, ok := f.Capture("second", nil); ok {
		t.Fatal("second capture accepted inside MinInterval")
	}
	if f.Captures() != 1 || f.Skipped() != 1 {
		t.Fatalf("captures/skipped = %d/%d, want 1/1", f.Captures(), f.Skipped())
	}
}

// TestFlightWaitRacesCapture runs Wait on one goroutine while Capture
// starts a snapshot on another, as a test reading the SLO evaluator's page
// event does while the evaluator triggers the recorder. Run it with -race.
func TestFlightWaitRacesCapture(t *testing.T) {
	f, _ := flightFixture(t, FlightConfig{MinInterval: time.Nanosecond, CPUProfile: -1})
	for i := 0; i < 200; i++ {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); f.Capture("race", nil) }()
		go func() { defer wg.Done(); f.Wait() }()
		wg.Wait()
	}
	f.Wait()
	if f.Captures() == 0 {
		t.Fatal("no capture accepted")
	}
}

// TestFlightPrune checks the disk ring: captures beyond MaxSnapshots
// delete the oldest directories.
func TestFlightPrune(t *testing.T) {
	f, _ := flightFixture(t, FlightConfig{CPUProfile: -1, MinInterval: time.Nanosecond, MaxSnapshots: 2})
	for i, reason := range []string{"one", "two", "three"} {
		if _, ok := f.Capture(reason, nil); !ok {
			t.Fatalf("capture %d rejected", i)
		}
		f.Wait() // dir timestamps have millisecond precision; serialize
		time.Sleep(2 * time.Millisecond)
	}
	snaps, err := f.Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 {
		t.Fatalf("retained %d snapshots, want 2", len(snaps))
	}
	// Newest first, oldest pruned.
	if !strings.HasSuffix(snaps[0].Name, "-three") || !strings.HasSuffix(snaps[1].Name, "-two") {
		t.Fatalf("retained %q %q, want three,two", snaps[0].Name, snaps[1].Name)
	}
	for _, s := range snaps {
		if !s.Complete || s.Reason == "" || len(s.Files) == 0 {
			t.Fatalf("snapshot listing incomplete: %+v", s)
		}
	}
}

// TestFlightOpenRejectsTraversal checks the path-component guard.
func TestFlightOpenRejectsTraversal(t *testing.T) {
	f, _ := flightFixture(t, FlightConfig{CPUProfile: -1})
	for _, bad := range [][2]string{
		{"..", "meta.json"}, {"snap", ".."}, {"a/b", "meta.json"},
		{`a\b`, "meta.json"}, {"", "meta.json"}, {"snap", "."},
	} {
		if _, err := f.Open(bad[0], bad[1]); err == nil {
			t.Fatalf("Open(%q, %q) accepted a bad component", bad[0], bad[1])
		}
	}
}

// TestFlightHandler drives the /debug/flight surface: the listing, a
// single snapshot's listing, raw file fetch, 404s, method filtering, and
// the nil-recorder empty listing.
func TestFlightHandler(t *testing.T) {
	f, _ := flightFixture(t, FlightConfig{CPUProfile: -1})
	dir, ok := f.Capture("demo", nil)
	if !ok {
		t.Fatal("capture rejected")
	}
	f.Wait()
	name := filepath.Base(dir)
	h := FlightHandler(f)

	get := func(url string) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", url, nil))
		return rr
	}

	rr := get("/debug/flight")
	var list struct {
		Dir       string           `json:"dir"`
		Snapshots []FlightSnapshot `json:"snapshots"`
		Captures  uint64           `json:"captures"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if list.Dir != f.Dir() || list.Captures != 1 || len(list.Snapshots) != 1 {
		t.Fatalf("listing = %+v", list)
	}
	if list.Snapshots[0].Name != name || !list.Snapshots[0].Complete {
		t.Fatalf("snapshot entry = %+v", list.Snapshots[0])
	}

	rr = get("/debug/flight?snapshot=" + name)
	if rr.Code != 200 || !strings.Contains(rr.Body.String(), "meta.json") {
		t.Fatalf("snapshot listing: %d %s", rr.Code, rr.Body.String())
	}

	rr = get("/debug/flight?snapshot=" + name + "&file=meta.json")
	if rr.Code != 200 || rr.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("file fetch: %d %q", rr.Code, rr.Header().Get("Content-Type"))
	}
	if !strings.Contains(rr.Body.String(), `"reason": "demo"`) {
		t.Fatalf("meta.json body: %s", rr.Body.String())
	}

	if rr = get("/debug/flight?snapshot=absent"); rr.Code != 404 {
		t.Fatalf("unknown snapshot: %d", rr.Code)
	}
	if rr = get("/debug/flight?snapshot=" + name + "&file=absent"); rr.Code != 404 {
		t.Fatalf("unknown file: %d", rr.Code)
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/debug/flight", nil))
	if rr.Code != 405 {
		t.Fatalf("POST: %d, want 405", rr.Code)
	}

	rr = httptest.NewRecorder()
	FlightHandler(nil).ServeHTTP(rr, httptest.NewRequest("GET", "/debug/flight", nil))
	if rr.Code != 200 || !strings.Contains(rr.Body.String(), `"snapshots":[]`) {
		t.Fatalf("nil recorder listing: %d %s", rr.Code, rr.Body.String())
	}
}

// TestFlightNilRecorder checks the nil-receiver contract.
func TestFlightNilRecorder(t *testing.T) {
	var f *FlightRecorder
	if _, ok := f.Capture("x", nil); ok {
		t.Fatal("nil recorder accepted a capture")
	}
	f.Wait()
	if f.Dir() != "" || f.Captures() != 0 || f.Skipped() != 0 {
		t.Fatal("nil recorder reported state")
	}
	if snaps, err := f.Snapshots(); err != nil || snaps != nil {
		t.Fatal("nil recorder listed snapshots")
	}
	if _, err := f.Open("a", "b"); err == nil {
		t.Fatal("nil recorder opened a file")
	}
}
