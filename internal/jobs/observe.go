package jobs

import (
	"eigenpro/internal/durable"
	"eigenpro/internal/obs"
	"eigenpro/internal/obs/slo"
)

// Job-lifecycle telemetry series names. The lifecycle counters and the
// queue-depth/per-state gauges register into Config.Metrics; per-epoch
// training series (eigenpro_train_*) are recorded into the same registry
// by the core.ObserveTraining hook each running job installs, labeled
// job="<id>".
const (
	MetricJobsSubmitted  = "eigenpro_jobs_submitted_total"
	MetricJobsCompleted  = "eigenpro_jobs_completed_total"
	MetricJobsFailed     = "eigenpro_jobs_failed_total"
	MetricJobsCancelled  = "eigenpro_jobs_cancelled_total"
	MetricJobsResumed    = "eigenpro_jobs_resumed_total"
	MetricJobsQueueDepth = "eigenpro_jobs_queue_depth"
	MetricJobsState      = "eigenpro_jobs_state"
	// MetricJobsRecovered counts jobs restored from the durable journal
	// by a restarted manager (persistent mode only).
	MetricJobsRecovered = "eigenpro_jobs_recovered_total"
	// MetricDurableWriteErrors counts tolerated persistence failures —
	// the job lifecycle proceeded, but its latest state may not survive
	// a crash. Alert on any increase.
	MetricDurableWriteErrors = "eigenpro_durable_write_errors_total"
	// Durability-layer totals, exported from the process-wide counters in
	// internal/durable (registered only in persistent mode).
	MetricDurableJournalRecords = "eigenpro_durable_journal_records_total"
	MetricDurableCorruptRecords = "eigenpro_durable_corrupt_records_total"
	MetricDurableFsyncs         = "eigenpro_durable_fsyncs_total"
)

// allStates enumerates the lifecycle states exposed as per-state gauges.
var allStates = []State{StateQueued, StateRunning, StateCancelled, StateDone, StateFailed}

// initMetrics registers the manager's lifecycle series.
func (m *Manager) initMetrics() {
	reg := m.cfg.Metrics
	m.submitted = reg.Counter(MetricJobsSubmitted, "Training jobs accepted by Submit.")
	m.completed = reg.Counter(MetricJobsCompleted, "Training jobs that finished and registered.")
	m.failed = reg.Counter(MetricJobsFailed, "Training jobs that ended in StateFailed.")
	m.cancelled = reg.Counter(MetricJobsCancelled, "Times a job entered StateCancelled.")
	m.resumed = reg.Counter(MetricJobsResumed, "Times a cancelled job was resumed.")
	m.recovered = reg.Counter(MetricJobsRecovered, "Jobs restored from the durable journal at startup.")
	m.persistErrors = reg.Counter(MetricDurableWriteErrors, "Tolerated persistence failures (state possibly not durable).")
	reg.GaugeFunc(MetricJobsQueueDepth, "Jobs queued, waiting for a worker.",
		func() float64 { return float64(len(m.queue)) })
	for _, st := range allStates {
		st := st
		reg.GaugeFunc(MetricJobsState, "Jobs currently in the labeled lifecycle state.",
			func() float64 { return float64(m.countState(st)) },
			obs.L("state", string(st)))
	}
}

// initPersistMetrics exposes the process-wide durability-layer counters;
// called only in persistent mode (re-registration into a shared registry
// dedupes, keeping the first registration).
func (m *Manager) initPersistMetrics() {
	reg := m.cfg.Metrics
	reg.CounterFunc(MetricDurableJournalRecords, "Journal records appended process-wide.",
		func() float64 { return float64(durable.JournalRecords()) })
	reg.CounterFunc(MetricDurableCorruptRecords, "Corrupt or torn durable artifacts detected process-wide.",
		func() float64 { return float64(durable.CorruptRecords()) })
	reg.CounterFunc(MetricDurableFsyncs, "Fsyncs issued by the durability layer process-wide.",
		func() float64 { return float64(durable.Fsyncs()) })
}

// countState counts jobs currently in the given state (scrape-time only).
func (m *Manager) countState(s State) int {
	m.mu.Lock()
	js := make([]*job, 0, len(m.jobs))
	for _, j := range m.jobs {
		js = append(js, j)
	}
	m.mu.Unlock()
	n := 0
	for _, j := range js {
		if j.snapshot().State == s {
			n++
		}
	}
	return n
}

// Metrics returns the registry the manager's telemetry registers into.
func (m *Manager) Metrics() *obs.Registry { return m.cfg.Metrics }

// Events returns the wide-event log, or nil when Config.Events was nil
// (event logging disabled).
func (m *Manager) Events() *obs.EventLog { return m.cfg.Events }

// SLO returns the burn-rate evaluator, or nil when Config.SLO was nil
// (nil is valid everywhere it is passed).
func (m *Manager) SLO() *slo.Evaluator { return m.cfg.SLO }

// Flight returns the flight recorder, or nil when Config.Flight was nil.
func (m *Manager) Flight() *obs.FlightRecorder { return m.cfg.Flight }

// Accepting reports whether the manager accepts new submissions — the
// readiness signal behind GET /readyz.
func (m *Manager) Accepting() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return !m.closed
}
