package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultEventCapacity is the event-ring size when NewEventLog is given a
// non-positive capacity.
const DefaultEventCapacity = 4096

// Level is an event severity.
type Level int8

// Severities, ordered: sinks and queries can filter on "at least warn".
const (
	LevelInfo Level = iota
	LevelWarn
	LevelError
)

// String returns the level's lowercase name.
func (l Level) String() string {
	switch l {
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	default:
		return "info"
	}
}

// MarshalJSON renders the level as its name, so JSON-lines sinks and the
// /debug/events payload stay greppable.
func (l Level) MarshalJSON() ([]byte, error) { return []byte(`"` + l.String() + `"`), nil }

// UnmarshalJSON parses a level name (unknown names parse as info).
func (l *Level) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	*l = ParseLevel(s)
	return nil
}

// ParseLevel maps a level name to its Level (unknown names map to info).
func ParseLevel(s string) Level {
	switch s {
	case "warn", "warning":
		return LevelWarn
	case "error":
		return LevelError
	default:
		return LevelInfo
	}
}

// Event kinds: the families emitted by the serving and training
// subsystems.
const (
	// KindServeRequest is one wide record per served request.
	KindServeRequest = "serve.request"
	// KindTrainEpoch is one record per completed training epoch.
	KindTrainEpoch = "train.epoch"
	// KindJobState is one record per training-job lifecycle transition.
	KindJobState = "job.state"
	// KindSLOState is one record per SLO alert-state transition
	// (ok|warn|page), emitted by the burn-rate evaluator.
	KindSLOState = "slo.state"
	// KindFlight is one record per captured flight-recorder snapshot.
	KindFlight = "flight.snapshot"
	// KindJobRecovered is one record per job restored from the durable
	// journal after a restart.
	KindJobRecovered = "job.recovered"
	// KindServerDrain is one record per graceful-drain phase transition
	// (begin, drained, timeout).
	KindServerDrain = "server.draining"
	// KindDurableError is one record per persistence failure or corrupt
	// artifact the durability layer detected and survived.
	KindDurableError = "durable.error"
)

// Event is one wide, structured record of something the system did: a
// served request, a training epoch, a job state transition. One event
// carries every dimension a diagnosis might group or filter by, so "what
// exactly happened to request X?" is answered by one record instead of a
// join across log lines.
type Event struct {
	// Seq is the event's position in its log's emission order (1-based,
	// assigned by Emit) — a resumable cursor for pollers:
	// /debug/events?since=<seq> returns only events emitted after it.
	Seq uint64 `json:"seq,omitempty"`
	// Time is when the event was emitted.
	Time time.Time `json:"time"`
	// Level is the severity (info, warn, error).
	Level Level `json:"level"`
	// Kind names the event family: "serve.request", "train.epoch",
	// "job.state", "slo.state", "flight.snapshot".
	Kind string `json:"kind"`

	// Model is the serving model name (serve.request events).
	Model string `json:"model,omitempty"`
	// Job is the training job id (train.epoch and job.state events).
	Job string `json:"job,omitempty"`
	// Outcome is the terminal disposition: ok, rejected, shed, expired, or
	// abandoned for requests; the new lifecycle state for job transitions.
	Outcome string `json:"outcome,omitempty"`
	// TraceID is the predict request's ID: the trace_id its caller got
	// back and the exemplar label on its latency bucket at /metrics.
	TraceID string `json:"trace_id,omitempty"`

	// Rows is the number of data rows the request carried.
	Rows int `json:"rows,omitempty"`
	// BatchID identifies the dispatched micro-batch that executed the
	// request; requests sharing a BatchID rode the same device wave.
	BatchID uint64 `json:"batch_id,omitempty"`
	// Occupancy is how many requests that micro-batch carried.
	Occupancy int `json:"occupancy,omitempty"`
	// QueueWait is enqueue → device-dispatch (or → terminal outcome for
	// requests that never reached the device).
	QueueWait time.Duration `json:"queue_wait_ns,omitempty"`
	// DeviceTime is the wall time of the device execution that carried the
	// request.
	DeviceTime time.Duration `json:"device_time_ns,omitempty"`

	// Epoch, MSE, ValError, Wall, and DeviceBusy describe one training
	// epoch: the 1-based epoch, its ending train MSE, the validation
	// classification error (0 when no validation set is attached), and the
	// epoch's wall-clock and simulated-device-busy durations (deltas, not
	// cumulative). On job.state and job.recovered events Wall times the
	// work that ended at the transition: registering the model (done),
	// checkpointing the trainer (cancelled), or restoring the job from
	// the journal (job.recovered).
	Epoch      int           `json:"epoch,omitempty"`
	MSE        float64       `json:"mse,omitempty"`
	ValError   float64       `json:"val_error,omitempty"`
	Wall       time.Duration `json:"wall_ns,omitempty"`
	DeviceBusy time.Duration `json:"device_busy_ns,omitempty"`

	// Objective names the SLO objective a slo.state transition or a flight
	// snapshot is about.
	Objective string `json:"objective,omitempty"`
	// Path is the on-disk snapshot directory of a flight.snapshot event.
	Path string `json:"path,omitempty"`

	// Err carries the error text for failure events.
	Err string `json:"error,omitempty"`
}

// EventLog retains the newest events in a lock-free bounded ring and
// optionally mirrors them to a JSON-lines sink. Emit is an atomic sequence
// claim plus an atomic pointer store, so logging a wide event per served
// request cannot contend with the hot path or with concurrent queries.
//
// Sampling keeps the ring and sink useful under load: events whose Outcome
// is "ok" at LevelInfo are kept 1-in-N (SetSampleEvery) while warnings and
// errors — rejections, sheds, expiries, failures — are always kept, the
// head+tail discipline that preserves exactly the records an incident
// post-mortem needs. A nil *EventLog is valid and disables logging; every
// method is a nil-safe no-op.
type EventLog struct {
	ring []atomic.Pointer[Event]
	seq  atomic.Uint64 // next ring slot (total events retained-or-overwritten)

	sampleEvery atomic.Int64 // keep 1-in-N ok events; <= 1 keeps all
	okSeq       atomic.Uint64
	dropped     atomic.Uint64 // ok events discarded by sampling
	emitted     atomic.Uint64 // events accepted into the ring

	// hasSink mirrors sink != nil so Emit skips sinkMu when no sink is
	// attached; writes still happen under the mutex.
	hasSink  atomic.Bool
	sinkMu   sync.Mutex
	sink     io.Writer
	sinkMin  Level
	sinkErrs atomic.Uint64
}

// NewEventLog returns an event log retaining the newest capacity events
// (DefaultEventCapacity when capacity <= 0).
func NewEventLog(capacity int) *EventLog {
	if capacity <= 0 {
		capacity = DefaultEventCapacity
	}
	l := &EventLog{ring: make([]atomic.Pointer[Event], capacity)}
	l.sampleEvery.Store(1)
	return l
}

// SetSampleEvery keeps 1-in-n LevelInfo events with Outcome "ok" (the
// steady-state success records); n <= 1 keeps all. Warnings and errors are
// never sampled out. Dropped events are counted (Dropped).
func (l *EventLog) SetSampleEvery(n int) {
	if l == nil {
		return
	}
	if n < 1 {
		n = 1
	}
	l.sampleEvery.Store(int64(n))
}

// SetSink mirrors every kept event at or above min to w as one JSON line
// per event. Pass nil to detach: no write starts after SetSink(nil, ...)
// returns. The sink write happens under a mutex off the ring's lock-free
// path; a slow sink slows only emitters that pass the sampling gate, and
// with no sink attached Emit takes no lock at all.
func (l *EventLog) SetSink(w io.Writer, min Level) {
	if l == nil {
		return
	}
	l.sinkMu.Lock()
	l.sink = w
	l.sinkMin = min
	l.hasSink.Store(w != nil)
	l.sinkMu.Unlock()
}

// Emit records one event, stamping Time if unset. Sampled-out events are
// counted and discarded; everything else lands in the ring (possibly
// overwriting the oldest event) and, when a sink is attached, on the sink.
func (l *EventLog) Emit(ev Event) {
	if l == nil {
		return
	}
	if ev.Level == LevelInfo && ev.Outcome == "ok" {
		if n := l.sampleEvery.Load(); n > 1 && l.okSeq.Add(1)%uint64(n) != 1 {
			l.dropped.Add(1)
			return
		}
	}
	l.emitted.Add(1)
	// Only a kept event is stamped and copied to the heap: taking ev's
	// own address would allocate it on every call, sampled out or not.
	kept := new(Event)
	*kept = ev
	if kept.Time.IsZero() {
		kept.Time = time.Now()
	}
	slot := l.seq.Add(1) - 1
	kept.Seq = slot + 1
	l.ring[slot%uint64(len(l.ring))].Store(kept)
	if l.hasSink.Load() {
		l.sinkTo(kept)
	}
}

// sinkTo writes one event to the attached sink, if any. The sink is
// re-checked under the mutex: a SetSink(nil) racing the flag load wins.
func (l *EventLog) sinkTo(ev *Event) {
	l.sinkMu.Lock()
	defer l.sinkMu.Unlock()
	if l.sink == nil || ev.Level < l.sinkMin {
		return
	}
	if err := json.NewEncoder(l.sink).Encode(ev); err != nil {
		l.sinkErrs.Add(1)
	}
}

// Cap returns the ring capacity (0 for a nil log).
func (l *EventLog) Cap() int {
	if l == nil {
		return 0
	}
	return len(l.ring)
}

// Len returns the number of events currently retained.
func (l *EventLog) Len() int {
	if l == nil {
		return 0
	}
	if n := l.seq.Load(); n < uint64(len(l.ring)) {
		return int(n)
	}
	return len(l.ring)
}

// Emitted returns how many events were accepted (ring-bound), including
// ones since overwritten.
func (l *EventLog) Emitted() uint64 {
	if l == nil {
		return 0
	}
	return l.emitted.Load()
}

// LastSeq returns the sequence number of the newest kept event (0 when
// none) — the starting cursor for incremental Query via SinceSeq.
func (l *EventLog) LastSeq() uint64 {
	if l == nil {
		return 0
	}
	return l.seq.Load()
}

// Dropped returns how many ok events sampling discarded.
func (l *EventLog) Dropped() uint64 {
	if l == nil {
		return 0
	}
	return l.dropped.Load()
}

// EventQuery filters a Query. Zero fields match everything.
type EventQuery struct {
	// Kind, Model, Outcome, Job, and TraceID match the corresponding
	// event fields exactly when non-empty.
	Kind, Model, Outcome, Job, TraceID string
	// MinLevel keeps only events at or above this severity.
	MinLevel Level
	// Since keeps only events at or after this instant.
	Since time.Time
	// SinceSeq keeps only events whose Seq is strictly greater — the
	// resumable-cursor form of Since.
	SinceSeq uint64
	// Limit bounds the result count; <= 0 returns every match retained.
	Limit int
}

// matches reports whether ev passes the filter.
func (q EventQuery) matches(ev *Event) bool {
	if q.Kind != "" && ev.Kind != q.Kind {
		return false
	}
	if q.Model != "" && ev.Model != q.Model {
		return false
	}
	if q.Outcome != "" && ev.Outcome != q.Outcome {
		return false
	}
	if q.Job != "" && ev.Job != q.Job {
		return false
	}
	if q.TraceID != "" && ev.TraceID != q.TraceID {
		return false
	}
	if ev.Level < q.MinLevel {
		return false
	}
	if !q.Since.IsZero() && ev.Time.Before(q.Since) {
		return false
	}
	if q.SinceSeq > 0 && ev.Seq <= q.SinceSeq {
		return false
	}
	return true
}

// Query returns the retained events matching q, newest first. It takes no
// lock: slots are read with atomic loads, so a query racing emitters may
// see an event twice or observe a slightly torn window, never a partial
// event.
func (l *EventLog) Query(q EventQuery) []Event {
	if l == nil {
		return nil
	}
	seq := l.seq.Load()
	n := uint64(len(l.ring))
	if seq < n {
		n = seq
	}
	var out []Event
	for i := uint64(0); i < n; i++ {
		ev := l.ring[(seq-1-i)%uint64(len(l.ring))].Load()
		if ev == nil || !q.matches(ev) {
			continue
		}
		out = append(out, *ev)
		if q.Limit > 0 && len(out) >= q.Limit {
			break
		}
	}
	return out
}
