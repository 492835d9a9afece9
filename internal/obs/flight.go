package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"eigenpro/internal/durable"
)

// Flight-recorder defaults.
const (
	// DefaultFlightMax is the snapshot disk-ring size: when a capture
	// would exceed it, the oldest snapshot directory is deleted.
	DefaultFlightMax = 8
	// DefaultFlightMinInterval spaces captures: a trigger arriving sooner
	// after the previous accepted capture is counted and dropped, so a
	// flapping alert cannot fill the disk or keep a CPU profile running.
	DefaultFlightMinInterval = 5 * time.Minute
	// DefaultFlightCPUProfile is the CPU-profile length per snapshot.
	DefaultFlightCPUProfile = 5 * time.Second
	// DefaultFlightEvents is how many of the newest wide events a
	// snapshot preserves.
	DefaultFlightEvents = 512
)

// FlightConfig configures NewFlightRecorder; zero values select the
// defaults above.
type FlightConfig struct {
	// Dir is the directory snapshots are written under (one subdirectory
	// per capture). Empty selects <os.TempDir()>/eigenpro-flight.
	Dir string
	// MaxSnapshots bounds the on-disk snapshot ring; <= 0 selects
	// DefaultFlightMax.
	MaxSnapshots int
	// MinInterval rate-limits captures; <= 0 selects
	// DefaultFlightMinInterval.
	MinInterval time.Duration
	// CPUProfile is how long the snapshot's CPU profile runs; 0 selects
	// DefaultFlightCPUProfile, < 0 disables the CPU profile (the capture
	// then completes near-instantly — useful in tests).
	CPUProfile time.Duration
	// EventCount is how many of the newest wide events to preserve;
	// <= 0 selects DefaultFlightEvents.
	EventCount int
	// Events is the wide-event log snapshots read from (and the log the
	// recorder emits its own flight.snapshot record into); nil skips the
	// events file.
	Events *EventLog
	// Registries are rendered into the snapshot's metrics expositions
	// (Go runtime telemetry rides along, as on /metrics).
	Registries []*Registry
}

// FlightRecorder captures debugging snapshots on demand — typically armed
// under an SLO burn-rate evaluator so every page ships with the evidence
// needed to diagnose it. One snapshot is a directory containing a CPU
// profile, a heap profile, a goroutine dump, the newest wide events, both
// metrics expositions, and a meta.json trailer (written last, so its
// presence marks the snapshot complete).
//
// Capture is asynchronous and rate-limited: the trigger path (an SLO
// evaluator tick) only performs two atomic checks before handing the slow
// work (a multi-second CPU profile) to a goroutine. A nil *FlightRecorder
// is valid and disables capturing; every method is a nil-safe no-op.
type FlightRecorder struct {
	cfg FlightConfig

	last     atomic.Int64 // unix nanos of the last accepted capture
	busy     atomic.Bool  // a capture goroutine is in flight
	captures atomic.Uint64
	skipped  atomic.Uint64
	// done is closed when the newest capture's goroutine finishes. busy
	// allows one capture at a time, so the newest is the only one that can
	// be in flight. (A WaitGroup would race: Capture's Add from a zero
	// count may not run concurrently with Wait.)
	done atomic.Pointer[chan struct{}]
}

// NewFlightRecorder returns a recorder writing snapshots under cfg.Dir,
// creating the directory if needed.
func NewFlightRecorder(cfg FlightConfig) (*FlightRecorder, error) {
	if cfg.Dir == "" {
		cfg.Dir = filepath.Join(os.TempDir(), "eigenpro-flight")
	}
	if cfg.MaxSnapshots <= 0 {
		cfg.MaxSnapshots = DefaultFlightMax
	}
	if cfg.MinInterval <= 0 {
		cfg.MinInterval = DefaultFlightMinInterval
	}
	if cfg.CPUProfile == 0 {
		cfg.CPUProfile = DefaultFlightCPUProfile
	}
	if cfg.EventCount <= 0 {
		cfg.EventCount = DefaultFlightEvents
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("obs: flight dir: %w", err)
	}
	return &FlightRecorder{cfg: cfg}, nil
}

// Dir returns the snapshot directory ("" for a nil recorder).
func (f *FlightRecorder) Dir() string {
	if f == nil {
		return ""
	}
	return f.cfg.Dir
}

// Captures returns how many snapshots were accepted; Skipped how many
// triggers the rate limit (or an in-flight capture) dropped.
func (f *FlightRecorder) Captures() uint64 {
	if f == nil {
		return 0
	}
	return f.captures.Load()
}

// Skipped returns how many capture triggers were dropped.
func (f *FlightRecorder) Skipped() uint64 {
	if f == nil {
		return 0
	}
	return f.skipped.Load()
}

// Wait blocks until any in-flight capture finishes (tests and shutdown).
func (f *FlightRecorder) Wait() {
	if f == nil {
		return
	}
	if done := f.done.Load(); done != nil {
		<-*done
	}
}

// slugRe strips anything that would not survive as a directory-name
// component.
var slugRe = regexp.MustCompile(`[^a-zA-Z0-9_.-]+`)

// Capture triggers one snapshot for the given reason (e.g. the breaching
// SLO objective's name), with meta merged into the snapshot's meta.json.
// It returns the snapshot directory and true when accepted, or "" and
// false when rate-limited, already capturing, or the recorder is nil. The
// snapshot is written asynchronously; meta.json appears last.
func (f *FlightRecorder) Capture(reason string, meta map[string]any) (string, bool) {
	if f == nil {
		return "", false
	}
	now := time.Now()
	last := f.last.Load()
	if last != 0 && now.Sub(time.Unix(0, last)) < f.cfg.MinInterval {
		f.skipped.Add(1)
		return "", false
	}
	if !f.last.CompareAndSwap(last, now.UnixNano()) {
		f.skipped.Add(1) // lost the race to a concurrent trigger
		return "", false
	}
	if !f.busy.CompareAndSwap(false, true) {
		f.skipped.Add(1)
		return "", false
	}
	slug := slugRe.ReplaceAllString(reason, "-")
	if slug == "" {
		slug = "manual"
	}
	dir := filepath.Join(f.cfg.Dir, now.UTC().Format("20060102T150405.000")+"-"+slug)
	done := make(chan struct{})
	f.done.Store(&done)
	go func() {
		defer close(done)
		defer f.busy.Store(false)
		f.write(dir, reason, now, meta)
	}()
	return dir, true
}

// write produces one snapshot directory. Errors are per-file: a file that
// cannot be produced (e.g. a CPU profile already running under pprof
// HTTP) is noted in meta.json instead of aborting the capture.
func (f *FlightRecorder) write(dir, reason string, at time.Time, meta map[string]any) {
	problems := map[string]string{}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}

	// CPU profile first: it is the only time-extended part, and everything
	// captured after it reflects the state the profile just explained.
	if f.cfg.CPUProfile > 0 {
		if err := writeFileWith(filepath.Join(dir, "cpu.pprof"), func(w io.Writer) error {
			if err := pprof.StartCPUProfile(w); err != nil {
				return err
			}
			time.Sleep(f.cfg.CPUProfile)
			pprof.StopCPUProfile()
			return nil
		}); err != nil {
			problems["cpu.pprof"] = err.Error()
		}
	}
	if err := writeFileWith(filepath.Join(dir, "heap.pprof"), func(w io.Writer) error {
		return pprof.Lookup("heap").WriteTo(w, 0)
	}); err != nil {
		problems["heap.pprof"] = err.Error()
	}
	if err := writeFileWith(filepath.Join(dir, "goroutines.txt"), func(w io.Writer) error {
		return pprof.Lookup("goroutine").WriteTo(w, 2)
	}); err != nil {
		problems["goroutines.txt"] = err.Error()
	}
	if f.cfg.Events != nil {
		if err := writeFileWith(filepath.Join(dir, "events.jsonl"), func(w io.Writer) error {
			enc := json.NewEncoder(w)
			for _, ev := range f.cfg.Events.Query(EventQuery{Limit: f.cfg.EventCount}) {
				if err := enc.Encode(ev); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			problems["events.jsonl"] = err.Error()
		}
	}
	regs := dedupRegistries(append(append([]*Registry(nil), f.cfg.Registries...), RuntimeMetrics()))
	if err := writeFileWith(filepath.Join(dir, "metrics.prom"), func(w io.Writer) error {
		for _, r := range regs {
			if err := r.WritePrometheus(w); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		problems["metrics.prom"] = err.Error()
	}
	if err := writeFileWith(filepath.Join(dir, "metrics.om"), func(w io.Writer) error {
		for _, r := range regs {
			if err := r.write(w, true); err != nil {
				return err
			}
		}
		_, err := io.WriteString(w, "# EOF\n")
		return err
	}); err != nil {
		problems["metrics.om"] = err.Error()
	}

	// meta.json last: its presence marks the snapshot complete.
	m := map[string]any{"time": at.UTC(), "reason": reason}
	for k, v := range meta {
		m[k] = v
	}
	if len(problems) > 0 {
		m["problems"] = problems
	}
	writeFileWith(filepath.Join(dir, "meta.json"), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(m)
	})
	f.captures.Add(1)
	f.prune()
	f.cfg.Events.Emit(Event{
		Level:     LevelWarn,
		Kind:      KindFlight,
		Objective: reason,
		Outcome:   "captured",
		Path:      dir,
	})
}

// writeFileWith writes one snapshot file atomically (temp file + fsync +
// rename via the durability layer) so a crash mid-capture can never leave a
// torn half-file that looks like evidence. The raw (no-trailer) variant
// keeps the files readable by external tools: go tool pprof must open
// cpu.pprof as-is.
func writeFileWith(path string, fill func(io.Writer) error) error {
	return durable.WriteRaw(durable.OS{}, path, fill)
}

// prune deletes the oldest snapshot directories beyond MaxSnapshots.
// Directory names start with a UTC timestamp, so lexicographic order is
// chronological.
func (f *FlightRecorder) prune() {
	names, err := f.snapshotNames()
	if err != nil {
		return
	}
	for len(names) > f.cfg.MaxSnapshots {
		os.RemoveAll(filepath.Join(f.cfg.Dir, names[0]))
		names = names[1:]
	}
}

// snapshotNames lists snapshot directory names, oldest first.
func (f *FlightRecorder) snapshotNames() ([]string, error) {
	entries, err := os.ReadDir(f.cfg.Dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// FlightFile is one file of a snapshot.
type FlightFile struct {
	Name  string `json:"name"`
	Bytes int64  `json:"bytes"`
}

// FlightSnapshot describes one captured snapshot for /debug/flight.
type FlightSnapshot struct {
	// Name is the snapshot directory name (timestamp + reason slug).
	Name string `json:"name"`
	// Reason is the trigger that captured it (from meta.json).
	Reason string `json:"reason,omitempty"`
	// Time is the capture instant (from meta.json).
	Time time.Time `json:"time,omitempty"`
	// Complete reports whether meta.json is present — it is written last,
	// so false means the capture is still in flight (or died mid-write).
	Complete bool `json:"complete"`
	// Files lists the snapshot's contents.
	Files []FlightFile `json:"files"`
}

// Snapshots lists the retained snapshots, newest first.
func (f *FlightRecorder) Snapshots() ([]FlightSnapshot, error) {
	if f == nil {
		return nil, nil
	}
	names, err := f.snapshotNames()
	if err != nil {
		return nil, err
	}
	out := make([]FlightSnapshot, 0, len(names))
	for i := len(names) - 1; i >= 0; i-- {
		out = append(out, f.describe(names[i]))
	}
	return out, nil
}

func (f *FlightRecorder) describe(name string) FlightSnapshot {
	snap := FlightSnapshot{Name: name}
	dir := filepath.Join(f.cfg.Dir, name)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return snap
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		snap.Files = append(snap.Files, FlightFile{Name: e.Name(), Bytes: info.Size()})
		if e.Name() == "meta.json" {
			snap.Complete = true
		}
	}
	var meta struct {
		Time   time.Time `json:"time"`
		Reason string    `json:"reason"`
	}
	if raw, err := os.ReadFile(filepath.Join(dir, "meta.json")); err == nil {
		if json.Unmarshal(raw, &meta) == nil {
			snap.Time, snap.Reason = meta.Time, meta.Reason
		}
	}
	return snap
}

// Open returns a reader over one file of one snapshot. Both names must be
// plain path components (no separators), so the handler cannot be walked
// out of the snapshot directory.
func (f *FlightRecorder) Open(snapshot, file string) (io.ReadCloser, error) {
	if f == nil {
		return nil, os.ErrNotExist
	}
	for _, name := range []string{snapshot, file} {
		if name == "" || name != filepath.Base(name) || strings.ContainsAny(name, `/\`) || name == ".." || name == "." {
			return nil, fmt.Errorf("obs: bad flight path component %q", name)
		}
	}
	return os.Open(filepath.Join(f.cfg.Dir, snapshot, file))
}

// FlightHandler serves a recorder's snapshots:
//
//	GET /debug/flight                                  list snapshots (JSON)
//	GET /debug/flight?snapshot=NAME                    one snapshot's listing
//	GET /debug/flight?snapshot=NAME&file=FILE          raw file contents
//
// A nil recorder serves an empty listing, so the endpoint is safe to
// mount unconditionally.
func FlightHandler(f *FlightRecorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		q := r.URL.Query()
		snap, file := q.Get("snapshot"), q.Get("file")
		switch {
		case snap != "" && file != "":
			rc, err := f.Open(snap, file)
			if err != nil {
				writeJSON(w, http.StatusNotFound, map[string]any{"error": err.Error()})
				return
			}
			defer rc.Close()
			switch {
			case strings.HasSuffix(file, ".json"):
				w.Header().Set("Content-Type", "application/json")
			case strings.HasSuffix(file, ".pprof"):
				w.Header().Set("Content-Type", "application/octet-stream")
			default:
				w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			}
			io.Copy(w, rc)
		case snap != "":
			snaps, err := f.Snapshots()
			if err != nil {
				writeJSON(w, http.StatusInternalServerError, map[string]any{"error": err.Error()})
				return
			}
			for _, s := range snaps {
				if s.Name == snap {
					writeJSON(w, http.StatusOK, s)
					return
				}
			}
			writeJSON(w, http.StatusNotFound, map[string]any{"error": "unknown snapshot " + snap})
		default:
			snaps, err := f.Snapshots()
			if err != nil && f != nil {
				writeJSON(w, http.StatusInternalServerError, map[string]any{"error": err.Error()})
				return
			}
			if snaps == nil {
				snaps = []FlightSnapshot{}
			}
			writeJSON(w, http.StatusOK, map[string]any{
				"dir":       f.Dir(),
				"snapshots": snaps,
				"captures":  f.Captures(),
				"skipped":   f.Skipped(),
			})
		}
	})
}
