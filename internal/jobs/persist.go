package jobs

// Persistent mode: with Config.StateDir set, the manager journals every
// lifecycle transition to an append-only checksummed WAL and seals job
// artifacts (spec, trainer checkpoint, finished model) to disk with
// atomic corruption-detected writes, so a kill -9 loses at most the
// epochs since the last checkpoint and a restarted manager resumes
// exactly — bit for bit — where the dead process left off.
//
// State-dir layout:
//
//	<state-dir>/journal.jsonl            lifecycle WAL (durable.Journal)
//	<state-dir>/jobs/<id>/spec.gob       submitted training spec (sealed)
//	<state-dir>/jobs/<id>/checkpoint.gob latest epoch-boundary trainer
//	                                     snapshot (sealed, atomically
//	                                     replaced at each checkpoint)
//	<state-dir>/jobs/<id>/model.gob      finished model (sealed)
//
// Crash-consistency contract: the journal decides each job's *state*;
// the checkpoint file is the trusted *progress*. Because the checkpoint
// is replaced atomically and verified on read, replaying "the last state
// the journal proves" from "the newest checkpoint that verifies" is
// always safe — at worst it redoes work that deterministic training
// reproduces identically. The "done" record is appended only after the
// model is durably sealed, so completion is never claimed for a model
// that cannot be reloaded.
//
// Not persisted (documented limits): Spec.Config.OnEpoch (a function)
// and Spec.Config.Spectrum (recomputed deterministically from Seed; the
// in-flight spectrum rides inside the trainer checkpoint instead).

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"eigenpro/internal/core"
	"eigenpro/internal/device"
	"eigenpro/internal/durable"
	"eigenpro/internal/kernel"
	"eigenpro/internal/mat"
	"eigenpro/internal/obs"
)

// Journal record types, one per lifecycle transition.
const (
	recSubmitted   = "submitted"
	recStarted     = "started"
	recEpoch       = "epoch"
	recCancelled   = "cancelled"
	recInterrupted = "interrupted"
	recResumed     = "resumed"
	recDone        = "done"
	recFailed      = "failed"
	recDeleted     = "deleted"
)

// journalRecord is one JSON line in the WAL.
type journalRecord struct {
	Type string `json:"type"`
	Job  string `json:"job"`
	// Name rides only on "submitted" (immutable afterwards).
	Name string `json:"name,omitempty"`
	// Epoch is the completed-epoch count at the transition.
	Epoch int `json:"epoch,omitempty"`
	// Checkpoint reports that a sealed trainer snapshot accompanied the
	// record.
	Checkpoint bool `json:"checkpoint,omitempty"`
	// Error carries the failure (or checkpoint-failure) text.
	Error string `json:"error,omitempty"`
	// At is the transition wall time.
	At time.Time `json:"at"`
}

// journal appends one record to the WAL; a persistence failure is
// tolerated (the in-memory lifecycle proceeds) but counted and surfaced.
// No-op outside persistent mode, so call sites need no guards.
func (m *Manager) journal(rec journalRecord) {
	if m.store == nil {
		return
	}
	rec.At = time.Now()
	if err := m.store.record(rec); err != nil {
		m.persistFailure(rec.Job, fmt.Errorf("journal %s: %w", rec.Type, err))
	}
}

// persistFailure counts a tolerated durability failure and emits the
// durable.error wide event. Training availability wins over durability:
// the job keeps running, the operator sees the gap.
func (m *Manager) persistFailure(id string, err error) {
	m.persistErrors.Inc()
	if m.cfg.Events != nil {
		m.cfg.Events.Emit(obs.Event{
			Level: obs.LevelError,
			Kind:  obs.KindDurableError,
			Job:   id,
			Err:   err.Error(),
		})
	}
}

// Recovered returns how many jobs this manager restored from the journal
// at startup (0 outside persistent mode).
func (m *Manager) Recovered() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.recoveredN
}

// StateDir returns the durable state directory, or "" outside persistent
// mode.
func (m *Manager) StateDir() string { return m.cfg.StateDir }

// store wraps the state directory: the WAL plus sealed per-job artifact
// files, all through one durable.FS so fault injection covers every
// operation.
type store struct {
	fsys durable.FS
	dir  string

	mu sync.Mutex
	j  *durable.Journal
}

// openStore opens (creating if needed) the state directory and its
// journal, returning the replayed records.
func openStore(fsys durable.FS, dir string) (*store, durable.Replay, error) {
	if fsys == nil {
		fsys = durable.OS{}
	}
	if err := fsys.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		return nil, durable.Replay{}, fmt.Errorf("jobs: state dir %s: %w", dir, err)
	}
	j, replay, err := durable.OpenJournal(fsys, filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		return nil, replay, fmt.Errorf("jobs: %w", err)
	}
	return &store{fsys: fsys, dir: dir, j: j}, replay, nil
}

func (s *store) jobDir(id string) string { return filepath.Join(s.dir, "jobs", id) }

func (s *store) record(rec journalRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.j == nil {
		return os.ErrClosed
	}
	return s.j.Append(rec)
}

func (s *store) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.j != nil {
		s.j.Close()
		s.j = nil
	}
}

// specVersion guards the sealed spec.gob layout.
const specVersion = 1

// denseWire is the serializable form of mat.Dense with decode-time shape
// validation (a corrupt-but-checksummed file cannot happen, but a
// version-drifted one can).
type denseWire struct {
	Rows, Cols int
	Data       []float64
}

func wireOf(d *mat.Dense) denseWire {
	if d == nil {
		return denseWire{}
	}
	return denseWire{Rows: d.Rows, Cols: d.Cols, Data: d.Data}
}

func (w denseWire) dense() (*mat.Dense, error) {
	if w.Rows < 0 || w.Cols < 0 || len(w.Data) != w.Rows*w.Cols {
		return nil, fmt.Errorf("jobs: decode matrix: %d elements for %dx%d", len(w.Data), w.Rows, w.Cols)
	}
	if w.Rows == 0 && w.Cols == 0 {
		return mat.NewDense(0, 0), nil
	}
	return mat.NewDenseData(w.Rows, w.Cols, w.Data), nil
}

// specWire is the sealed on-disk layout of a Spec: everything a restart
// needs to reconstruct the identical training run. The kernel is stored
// by (family, sigma) via kernel.Family — the same convention as the
// model gob format — so an unserializable custom kernel is rejected at
// Submit-persist time, not discovered at recovery.
type specWire struct {
	Version      int
	Name         string
	KernelFamily string
	KernelSigma  float64
	HasDevice    bool
	Device       device.Device
	Method       int
	S            int
	QMax         int
	Q            int
	Batch        int
	Eta          float64
	Epochs       int
	MaxIters     int
	StopTrainMSE float64
	Patience     int
	Seed         int64
	X, Y         denseWire
	HasValX      bool
	ValX         denseWire
	ValLabels    []int
}

func (s *store) specPath(id string) string { return filepath.Join(s.jobDir(id), "spec.gob") }
func (s *store) ckptPath(id string) string { return filepath.Join(s.jobDir(id), "checkpoint.gob") }
func (s *store) modelPath(id string) string {
	return filepath.Join(s.jobDir(id), "model.gob")
}

func (s *store) saveSpec(id string, spec Spec) error {
	family, sigma, err := kernel.Family(spec.Config.Kernel)
	if err != nil {
		return err
	}
	w := specWire{
		Version:      specVersion,
		Name:         spec.Name,
		KernelFamily: family,
		KernelSigma:  sigma,
		Method:       int(spec.Config.Method),
		S:            spec.Config.S,
		QMax:         spec.Config.QMax,
		Q:            spec.Config.Q,
		Batch:        spec.Config.Batch,
		Eta:          spec.Config.Eta,
		Epochs:       spec.Config.Epochs,
		MaxIters:     spec.Config.MaxIters,
		StopTrainMSE: spec.Config.StopTrainMSE,
		Patience:     spec.Config.Patience,
		Seed:         spec.Config.Seed,
		X:            wireOf(spec.X),
		Y:            wireOf(spec.Y),
		ValLabels:    spec.Config.ValLabels,
	}
	if spec.Config.Device != nil {
		w.HasDevice, w.Device = true, *spec.Config.Device
	}
	if spec.Config.ValX != nil {
		w.HasValX, w.ValX = true, wireOf(spec.Config.ValX)
	}
	if err := s.fsys.MkdirAll(s.jobDir(id), 0o755); err != nil {
		return err
	}
	return durable.WriteFileWith(s.fsys, s.specPath(id), func(wr io.Writer) error {
		return gob.NewEncoder(wr).Encode(w)
	})
}

func (s *store) loadSpec(id string) (Spec, error) {
	payload, err := durable.ReadFile(s.fsys, s.specPath(id))
	if err != nil {
		return Spec{}, err
	}
	var w specWire
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&w); err != nil {
		return Spec{}, fmt.Errorf("jobs: decode spec: %w", err)
	}
	if w.Version != specVersion {
		return Spec{}, fmt.Errorf("jobs: spec version %d unsupported", w.Version)
	}
	k, err := kernel.ByName(w.KernelFamily, w.KernelSigma)
	if err != nil {
		return Spec{}, fmt.Errorf("jobs: decode spec: %w", err)
	}
	x, err := w.X.dense()
	if err != nil {
		return Spec{}, err
	}
	y, err := w.Y.dense()
	if err != nil {
		return Spec{}, err
	}
	if x.Rows != y.Rows {
		return Spec{}, fmt.Errorf("jobs: decode spec: %d samples with %d target rows", x.Rows, y.Rows)
	}
	spec := Spec{
		Name: w.Name,
		X:    x,
		Y:    y,
		Config: core.Config{
			Kernel:       k,
			Method:       core.Method(w.Method),
			S:            w.S,
			QMax:         w.QMax,
			Q:            w.Q,
			Batch:        w.Batch,
			Eta:          w.Eta,
			Epochs:       w.Epochs,
			MaxIters:     w.MaxIters,
			StopTrainMSE: w.StopTrainMSE,
			Patience:     w.Patience,
			Seed:         w.Seed,
			ValLabels:    w.ValLabels,
		},
	}
	if w.HasDevice {
		dev := w.Device
		spec.Config.Device = &dev
	}
	if w.HasValX {
		valX, err := w.ValX.dense()
		if err != nil {
			return Spec{}, err
		}
		spec.Config.ValX = valX
	}
	return spec, nil
}

func (s *store) saveCheckpoint(id string, t *core.Trainer) error {
	if err := s.fsys.MkdirAll(s.jobDir(id), 0o755); err != nil {
		return err
	}
	return durable.WriteFileWith(s.fsys, s.ckptPath(id), t.Checkpoint)
}

func (s *store) saveCheckpointBytes(id string, snapshot []byte) error {
	if err := s.fsys.MkdirAll(s.jobDir(id), 0o755); err != nil {
		return err
	}
	return durable.WriteFile(s.fsys, s.ckptPath(id), snapshot)
}

func (s *store) loadCheckpoint(id string) ([]byte, error) {
	return durable.ReadFile(s.fsys, s.ckptPath(id))
}

func (s *store) saveModel(id string, model *core.Model) error {
	if err := s.fsys.MkdirAll(s.jobDir(id), 0o755); err != nil {
		return err
	}
	return durable.WriteFileWith(s.fsys, s.modelPath(id), func(w io.Writer) error {
		return core.SaveModel(w, model)
	})
}

func (s *store) loadModel(id string) (*core.Model, error) {
	payload, err := durable.ReadFile(s.fsys, s.modelPath(id))
	if err != nil {
		return nil, err
	}
	return core.LoadModel(bytes.NewReader(payload))
}

func (s *store) removeJob(id string) error {
	return s.fsys.RemoveAll(s.jobDir(id))
}

// folded is one job's journal history collapsed to what recovery needs.
type folded struct {
	last      journalRecord
	name      string
	epoch     int
	resumes   int
	submitted time.Time
}

// recover rebuilds the job table from the journal replay. It runs from
// Open before the workers start, so re-enqueued jobs sit in the buffered
// queue channel until the pool spins up; no lock ordering issues exist
// yet, but the manager lock is still taken where invariants expect it.
func (m *Manager) recover(replay durable.Replay) {
	byJob := make(map[string]*folded)
	var order []string
	for _, raw := range replay.Records {
		var rec journalRecord
		if err := json.Unmarshal(raw, &rec); err != nil || rec.Job == "" {
			// The checksum passed but the payload is not one of ours —
			// a foreign or version-drifted record. Skip, surface.
			m.persistFailure("", fmt.Errorf("recovery: unintelligible journal record %.80q", raw))
			continue
		}
		f := byJob[rec.Job]
		if f == nil {
			f = &folded{submitted: rec.At}
			byJob[rec.Job] = f
			order = append(order, rec.Job)
		}
		if rec.Name != "" {
			f.name = rec.Name
		}
		if rec.Epoch > f.epoch {
			f.epoch = rec.Epoch
		}
		if rec.Type == recResumed {
			f.resumes++
		}
		f.last = rec
	}
	if replay.Corrupt > 0 || replay.TruncatedTail {
		m.persistFailure("", fmt.Errorf(
			"recovery: journal damage survived: %d corrupt record(s), truncated tail %v",
			replay.Corrupt, replay.TruncatedTail))
	}
	for _, id := range order {
		f := byJob[id]
		if f.last.Type == recDeleted {
			continue
		}
		if n := idSeq(id); n > m.seq {
			m.seq = n
		}
		m.recoverJob(id, f)
	}
}

// idSeq extracts N from a manager-issued "job-N" id so recovered ids are
// never reissued.
func idSeq(id string) int {
	var n int
	if _, err := fmt.Sscanf(id, "job-%d", &n); err == nil {
		return n
	}
	return 0
}

// recoverJob reconstructs one job from its folded journal history:
// terminal states are restored as records (done additionally reloads and
// re-registers its model), anything in flight — submitted, started,
// mid-epoch, interrupted by shutdown — is re-enqueued to continue from
// its newest verified checkpoint.
func (m *Manager) recoverJob(id string, f *folded) {
	start := time.Now()
	name := f.name
	if name == "" {
		name = id
	}
	j := &job{
		cancelCh: make(chan struct{}),
		info: Info{
			ID:        id,
			Name:      name,
			Epoch:     f.epoch,
			Epochs:    f.epoch, // refined from the spec below when loaded
			Submitted: f.submitted,
			Resumes:   f.resumes,
			Recovered: true,
		},
	}
	j.cond = sync.NewCond(&j.mu)

	requeued := false
	switch f.last.Type {
	case recDone:
		model, err := m.store.loadModel(id)
		if err != nil {
			m.recoveryFail(j, fmt.Errorf("recovery: load model: %w", err))
			break
		}
		j.result = &core.Result{Model: model, Epochs: f.epoch}
		j.info.State = StateDone
		j.info.Finished = f.last.At
		if m.cfg.Registrar != nil {
			if err := m.cfg.Registrar.Register(name, model); err != nil {
				m.recoveryFail(j, fmt.Errorf("recovery: register model %q: %w", name, err))
				break
			}
			j.info.Servable = true
		}
	case recFailed:
		j.info.State = StateFailed
		j.info.Error = f.last.Error
		j.info.Finished = f.last.At
	case recCancelled:
		if !m.recoverSpec(j, id) {
			break
		}
		m.recoverCheckpoint(j, id)
		j.info.State = StateCancelled
		if f.last.Error != "" {
			j.info.Error = f.last.Error
		}
	default:
		// submitted | started | epoch | resumed | interrupted: the job was
		// in flight when the process died — put it back to work.
		if !m.recoverSpec(j, id) {
			break
		}
		m.recoverCheckpoint(j, id)
		j.info.State = StateQueued
		select {
		case m.queue <- j:
			j.info.Resumes++
			requeued = true
		default:
			// Queue full (possible only when QueueDepth shrank across the
			// restart): leave the job cancelled-with-checkpoint so a
			// manual resume can still continue it.
			j.info.State = StateCancelled
			m.persistFailure(id, errors.New("recovery: queue full, job left cancelled"))
		}
	}

	m.mu.Lock()
	m.jobs[id] = j
	m.order = append(m.order, id)
	m.recoveredN++
	m.mu.Unlock()
	m.recovered.Inc()
	snap := j.snapshot()
	if m.cfg.Events != nil {
		m.cfg.Events.Emit(obs.Event{
			Level:   obs.LevelInfo,
			Kind:    obs.KindJobRecovered,
			Job:     id,
			Outcome: string(snap.State),
			Epoch:   snap.Epoch,
			Wall:    time.Since(start),
			Err:     snap.Error,
		})
	}
	if requeued {
		m.journal(journalRecord{Type: recResumed, Job: id, Epoch: snap.Epoch, Checkpoint: snap.Checkpointed})
		m.stateEvent(obs.LevelInfo, id, StateQueued, "", 0)
	}
}

// recoverSpec loads the job's sealed spec; on failure the job is marked
// failed with the recovery error and false is returned.
func (m *Manager) recoverSpec(j *job, id string) bool {
	spec, err := m.store.loadSpec(id)
	if err != nil {
		m.recoveryFail(j, fmt.Errorf("recovery: load spec: %w", err))
		return false
	}
	j.spec = spec
	j.info.Epochs = spec.Config.Epochs
	return true
}

// recoverCheckpoint loads the newest verified checkpoint if one exists.
// A corrupt checkpoint is surfaced and skipped — the job restarts from
// scratch (deterministically reaching the same result) rather than ever
// loading torn state.
func (m *Manager) recoverCheckpoint(j *job, id string) {
	snapshot, err := m.store.loadCheckpoint(id)
	switch {
	case err == nil:
		j.checkpoint = snapshot
		j.info.Checkpointed = true
	case os.IsNotExist(err):
		// Never checkpointed; nothing to restore.
	default:
		m.persistFailure(id, fmt.Errorf("recovery: checkpoint discarded: %w", err))
	}
}

// recoveryFail marks a job failed during recovery and surfaces the
// durability error behind it.
func (m *Manager) recoveryFail(j *job, err error) {
	m.failed.Inc()
	j.info.State = StateFailed
	j.info.Error = err.Error()
	j.info.Finished = time.Now()
	m.persistFailure(j.info.ID, err)
}
