// Package parallel implements synchronous data-parallel EigenPro 2.0
// training across a group of devices — the multi-GPU direction the paper's
// §6 names as the next natural step for kernel methods.
//
// The kernel centers (and their coefficient rows) are partitioned into one
// shard per worker. Every iteration:
//
//  1. the mini-batch is broadcast to all workers;
//  2. worker w computes its partial predictions f_w = K(batch, X_w)·α_w;
//  3. an allreduce sums the partials into f = Σ_w f_w (this is the
//     synchronization the device group's SyncOverhead models);
//  4. each worker applies the SGD update to the batch coordinates it owns
//     and the EigenPro correction to its share of the fixed block.
//
// Because every floating-point quantity is reduced deterministically
// (shards summed in worker order), the result matches single-device
// training up to roundoff reassociation — an invariant the test suite
// enforces.
package parallel

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"eigenpro/internal/core"
	"eigenpro/internal/device"
	"eigenpro/internal/kernel"
	"eigenpro/internal/mat"
)

// Config controls sharded training. Zero values select the same automatic
// choices as core.Config.
type Config struct {
	// Kernel is required.
	Kernel kernel.Func
	// Workers is the number of shards (required >= 1).
	Workers int
	// Device is the aggregate resource (typically device.NewGroup);
	// defaults to device.SimTitanXp().
	Device *device.Device
	// S, QMax, Q, Batch, Eta, Epochs, StopTrainMSE, Seed mirror
	// core.Config.
	S, QMax, Q, Batch int
	Eta               float64
	Epochs            int
	StopTrainMSE      float64
	Seed              int64
}

// Result reports a sharded training run.
type Result struct {
	// Model is the trained predictor (coefficients assembled across
	// shards).
	Model *core.Model
	// Params are the automatically selected parameters.
	Params core.Params
	// Epochs, Iters, SimTime, WallTime, FinalTrainMSE, Converged mirror
	// core.Result.
	Epochs, Iters     int
	SimTime, WallTime time.Duration
	FinalTrainMSE     float64
	Converged         bool
}

// shard is one worker's slice of the center set.
type shard struct {
	lo, hi int // owned rows [lo, hi) of x and alpha
}

// Train fits a kernel machine with the center set partitioned across
// cfg.Workers shards. It is NewTrainer followed by Step until completion —
// use the Trainer directly for progress-monitored, cancellable, or
// checkpointed sharded training.
func Train(cfg Config, x, y *mat.Dense) (*Result, error) {
	t, err := NewTrainer(cfg, x, y)
	if err != nil {
		return nil, err
	}
	for !t.Done() {
		if _, err := t.Step(); err != nil {
			return nil, err
		}
	}
	return t.Result(), nil
}

// Trainer is the interruptible state machine behind Train, mirroring
// core.Trainer for the sharded path: one Step per epoch, Checkpoint between
// steps, ResumeTrainer to continue bit-for-bit. Not safe for concurrent use.
type Trainer struct {
	cfg    Config
	x, y   *mat.Dense
	sp     *core.Spectrum
	params core.Params

	n, d, l, s int
	lambdaTop  float64
	vq         *mat.Dense
	dDiag      []float64
	shards     []shard
	partial    []*mat.Dense

	model *core.Model
	clock *device.Clock
	rng   *rand.Rand
	res   *Result

	epoch int
	done  bool
	wall  time.Duration
}

// NewTrainer validates the configuration, estimates the spectrum, selects
// the analytic parameters, and returns a Trainer positioned before epoch 1.
func NewTrainer(cfg Config, x, y *mat.Dense) (*Trainer, error) {
	return newTrainer(cfg, x, y, nil)
}

// newTrainer adopts a precomputed spectrum when sp is non-nil (the resume
// path, where re-estimation would be wasted work).
func newTrainer(cfg Config, x, y *mat.Dense, sp *core.Spectrum) (*Trainer, error) {
	if cfg.Kernel == nil {
		return nil, fmt.Errorf("parallel: Config.Kernel is required")
	}
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("parallel: Workers must be >= 1, got %d", cfg.Workers)
	}
	if cfg.Epochs < 1 {
		return nil, fmt.Errorf("parallel: Epochs must be >= 1, got %d", cfg.Epochs)
	}
	if x.Rows != y.Rows {
		return nil, fmt.Errorf("parallel: %d samples with %d target rows", x.Rows, y.Rows)
	}
	n, d, l := x.Rows, x.Cols, y.Cols
	if cfg.Workers > n {
		return nil, fmt.Errorf("parallel: %d workers for %d samples", cfg.Workers, n)
	}
	dev := cfg.Device
	if dev == nil {
		dev = device.SimTitanXp()
	}

	s := cfg.S
	if s == 0 {
		s = core.SubsampleSize(n)
	}
	if s > n {
		s = n
	}
	qmax := cfg.QMax
	if qmax == 0 {
		qmax = s / 4
		if qmax > 256 {
			qmax = 256
		}
		if qmax < 1 {
			qmax = 1
		}
	}
	if qmax >= s {
		qmax = s - 1
	}
	if sp == nil {
		var err error
		sp, err = core.EstimateSpectrum(cfg.Kernel, x, s, qmax, cfg.Seed)
		if err != nil {
			return nil, err
		}
	} else {
		s = sp.S()
		// A decoded checkpoint spectrum indexes the training rows through
		// SubIdx; entries outside [0, n) would panic in ownerOf.
		for _, idx := range sp.SubIdx {
			if idx < 0 || idx >= n {
				return nil, fmt.Errorf("parallel: spectrum subsample index %d outside %d training rows", idx, n)
			}
		}
	}
	params := core.SelectParams(sp, dev, n, d, l)
	if cfg.Q > 0 {
		if cfg.Q > sp.QMax() {
			return nil, fmt.Errorf("parallel: Q=%d exceeds available eigenpairs %d", cfg.Q, sp.QMax())
		}
		params.QAdjusted = cfg.Q
		params.BetaAdapted = core.BetaPrecond(sp, cfg.Q)
	}
	if cfg.Batch > 0 {
		params.Batch = cfg.Batch
	}
	if params.Batch > n {
		params.Batch = n
	}
	q := params.QAdjusted
	if q > 0 {
		probeN := 2000
		if probeN > n {
			probeN = n
		}
		probeIdx := rand.New(rand.NewSource(cfg.Seed + 2)).Perm(n)[:probeN]
		if b := core.BetaPrecondAt(sp, q, x.SelectRows(probeIdx)); b > params.BetaAdapted {
			params.BetaAdapted = b
		}
	}
	lambdaTop := sp.Lambda(1)
	if q > 0 {
		lambdaTop = sp.Lambda(q)
	}
	params.Eta = core.StepSize(params.Batch, params.BetaAdapted, lambdaTop)
	if cfg.Eta > 0 {
		params.Eta = cfg.Eta
	}

	// Preconditioner pieces (shared, read-only across workers).
	var vq *mat.Dense
	var dDiag []float64
	if q > 0 {
		idx := make([]int, q)
		for i := range idx {
			idx[i] = i
		}
		vq = sp.V.SelectCols(idx)
		dDiag = make([]float64, q)
		sigQ := sp.Sigma[q-1]
		for i := 0; i < q; i++ {
			if sp.Sigma[i] > 0 {
				dDiag[i] = (1 - sigQ/sp.Sigma[i]) / sp.Sigma[i]
			}
		}
	}

	// Contiguous shards.
	shards := make([]shard, cfg.Workers)
	per := n / cfg.Workers
	extra := n % cfg.Workers
	lo := 0
	for w := range shards {
		hi := lo + per
		if w < extra {
			hi++
		}
		shards[w] = shard{lo: lo, hi: hi}
		lo = hi
	}

	model := core.NewModel(cfg.Kernel, x, l)
	t := &Trainer{
		cfg: cfg, x: x, y: y, sp: sp, params: params,
		n: n, d: d, l: l, s: s,
		lambdaTop: lambdaTop, vq: vq, dDiag: dDiag,
		shards:  shards,
		partial: make([]*mat.Dense, cfg.Workers),
		model:   model,
		clock:   device.NewClock(dev),
		rng:     rand.New(rand.NewSource(cfg.Seed + 1)),
		res:     &Result{Model: model, Params: params},
	}
	return t, nil
}

// Done reports whether training has finished.
func (t *Trainer) Done() bool { return t.done }

// Epoch returns the number of completed epochs.
func (t *Trainer) Epoch() int { return t.epoch }

// Result returns the result accumulated so far; SimTime and WallTime
// reflect the work done up to now.
func (t *Trainer) Result() *Result {
	t.res.SimTime = t.clock.Elapsed()
	t.res.WallTime = t.wall
	return t.res
}

// Step runs one epoch across the shards and returns its statistics
// (ValError is always NaN: the sharded path has no validation hook). After
// the final epoch Done reports true and further Steps return
// core.ErrTrainingComplete.
func (t *Trainer) Step() (core.EpochStats, error) {
	if t.done {
		return core.EpochStats{}, core.ErrTrainingComplete
	}
	start := time.Now()
	defer func() { t.wall += time.Since(start) }()

	cfg, params, sp, res := t.cfg, t.params, t.sp, t.res
	x, y := t.x, t.y
	n, d, l, s := t.n, t.d, t.l, t.s
	q := params.QAdjusted
	alpha := t.model.Alpha
	m := params.Batch
	epoch := t.epoch + 1

	perm := t.rng.Perm(n)
	sumSq, count := 0.0, 0
	for bLo := 0; bLo < n; bLo += m {
		bHi := bLo + m
		if bHi > n {
			bHi = n
		}
		batch := perm[bLo:bHi]
		mt := len(batch)
		etaT := params.Eta
		if mt != m && cfg.Eta == 0 {
			etaT = core.StepSize(mt, params.BetaAdapted, t.lambdaTop)
		} else if mt != m {
			etaT = cfg.Eta * float64(mt) / float64(m)
		}
		xb := x.SelectRows(batch)

		// Workers compute partial predictions over their shards.
		var wg sync.WaitGroup
		kbs := make([]*mat.Dense, cfg.Workers)
		for w, sh := range t.shards {
			wg.Add(1)
			go func(w int, sh shard) {
				defer wg.Done()
				xw := x.SliceRows(sh.lo, sh.hi)
				kb := kernel.Matrix(cfg.Kernel, xb, xw) // m x n_w
				// K·α on the a·bᵀ micro-kernel, against the shard's αᵀ.
				awT := alpha.SliceRows(sh.lo, sh.hi).T()
				t.partial[w] = mat.MulT(kb, awT)
				kbs[w] = kb
			}(w, sh)
		}
		wg.Wait()
		// Deterministic allreduce in worker order.
		f := t.partial[0].Clone()
		for w := 1; w < cfg.Workers; w++ {
			mat.AddInPlace(f, t.partial[w])
		}
		// Residual and loss.
		r := f
		for i, row := range batch {
			yRow := y.RowView(row)
			rRow := r.RowView(i)
			for j := range rRow {
				rRow[j] -= yRow[j]
				sumSq += rRow[j] * rRow[j]
			}
		}
		count += mt * l
		if math.IsNaN(sumSq) || math.IsInf(sumSq, 0) {
			t.done = true
			return core.EpochStats{}, fmt.Errorf("parallel: training diverged at epoch %d", epoch)
		}
		scale := etaT * 2 / float64(mt)

		// Correction on the fixed block (computed once, applied by
		// owners). Φ r = Σ_w Φ_w-part; the subsample columns of the
		// batch kernel rows live in the shard kernels.
		var t3 *mat.Dense
		if q > 0 {
			phiR := mat.NewDense(s, l)
			for j, rowIdx := range sp.SubIdx {
				w := ownerOf(t.shards, rowIdx)
				col := rowIdx - t.shards[w].lo
				kb := kbs[w]
				dst := phiR.RowView(j)
				for i := 0; i < mt; i++ {
					kv := kb.At(i, col)
					if kv == 0 {
						continue
					}
					mat.Axpy(kv, r.RowView(i), dst)
				}
			}
			t2 := mat.TMul(t.vq, phiR) // q x l
			for i := 0; i < t2.Rows; i++ {
				di := t.dDiag[i]
				row := t2.RowView(i)
				for j := range row {
					row[j] *= di
				}
			}
			t3 = mat.Mul(t.vq, t2) // s x l
		}

		// Owners apply updates to their coordinate blocks in parallel.
		for w := range t.shards {
			wg.Add(1)
			go func(w int, sh shard) {
				defer wg.Done()
				for i, rowIdx := range batch {
					if rowIdx >= sh.lo && rowIdx < sh.hi {
						mat.Axpy(-scale, r.RowView(i), alpha.RowView(rowIdx))
					}
				}
				if t3 != nil {
					for j, rowIdx := range sp.SubIdx {
						if rowIdx >= sh.lo && rowIdx < sh.hi {
							mat.Axpy(scale, t3.RowView(j), alpha.RowView(rowIdx))
						}
					}
				}
			}(w, t.shards[w])
		}
		wg.Wait()

		t.clock.Charge(core.ImprovedEigenProIterOps(n, mt, d, l, s, q))
		res.Iters++
	}
	res.Epochs = epoch
	res.FinalTrainMSE = sumSq / float64(count)
	t.epoch = epoch
	if cfg.StopTrainMSE > 0 && res.FinalTrainMSE < cfg.StopTrainMSE {
		res.Converged = true
		t.done = true
	}
	if epoch >= cfg.Epochs {
		t.done = true
	}
	return core.EpochStats{
		Epoch:    epoch,
		TrainMSE: res.FinalTrainMSE,
		ValError: math.NaN(),
		SimTime:  t.clock.Elapsed(),
		Wall:     t.wall + time.Since(start),
		Iters:    res.Iters,
	}, nil
}

// ownerOf returns the index of the shard owning global row idx.
func ownerOf(shards []shard, idx int) int {
	for w, sh := range shards {
		if idx >= sh.lo && idx < sh.hi {
			return w
		}
	}
	panic(fmt.Sprintf("parallel: row %d outside all shards", idx))
}
