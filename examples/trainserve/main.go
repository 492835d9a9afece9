// Trainserve: the full train → serve loop through the async training-job
// subsystem — submit a training job, watch per-epoch progress, cancel it
// mid-run (taking a checkpoint at the epoch boundary), resume it
// bit-for-bit, and classify against the auto-registered model on the
// batched inference server, all in one process.
//
// The job manager's contract is exact, not approximate: the
// cancelled-and-resumed run produces coefficients bit-identical to an
// uninterrupted run with the same seed, which this walkthrough verifies at
// the end.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"eigenpro"
)

func main() {
	ds := eigenpro.MNISTLike(1200, 1)
	train, test := ds.Split(0.8, 1)
	cfg := eigenpro.Config{
		Kernel: eigenpro.GaussianKernel(5),
		Epochs: 6,
		Seed:   1,
	}

	// The serving side: completed jobs auto-register here.
	srv := eigenpro.NewServer(eigenpro.ServerConfig{})
	defer srv.Close()
	mgr := eigenpro.NewTrainingManager(eigenpro.TrainingConfig{
		Workers:   2,
		Registrar: srv, // ← the train → serve hand-off
	})
	defer mgr.Close()

	// Submit and watch.
	id, err := eigenpro.SubmitTraining(mgr, eigenpro.TrainingSpec{
		Name:   "mnist",
		Config: cfg,
		X:      train.X,
		Y:      train.Y,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("submitted %s as model %q\n", id, "mnist")

	cancelled := false
	lastEpoch := 0
	for {
		info, _ := eigenpro.JobStatus(mgr, id)
		if info.Epoch > lastEpoch {
			fmt.Printf("  epoch %d/%d: train mse %.5f\n", info.Epoch, info.Epochs, info.TrainMSE)
			lastEpoch = info.Epoch
		}
		// Interrupt the job once it is half way through.
		if !cancelled && info.State == eigenpro.JobRunning && info.Epoch >= 2 {
			fmt.Println("cancelling mid-run (checkpoint at the next epoch boundary)...")
			if err := mgr.Cancel(id); err != nil {
				log.Fatal(err)
			}
			cancelled = true
		}
		if info.State == eigenpro.JobCancelled {
			fmt.Printf("parked at epoch %d, checkpointed=%v; resuming\n", info.Epoch, info.Checkpointed)
			if err := mgr.Resume(id); err != nil {
				log.Fatal(err)
			}
		}
		if info.State == eigenpro.JobDone {
			fmt.Printf("done after %d epochs (%d resume(s)); servable=%v\n",
				info.Epoch, info.Resumes, info.Servable)
			break
		}
		if info.State == eigenpro.JobFailed {
			log.Fatalf("job failed: %s", info.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The model is already live on the server — no manual registration.
	correct := 0
	for i := 0; i < test.N(); i++ {
		label, err := srv.PredictLabel(context.Background(), "mnist", test.X.RowView(i))
		if err != nil {
			log.Fatal(err)
		}
		if label == test.Labels[i] {
			correct++
		}
	}
	fmt.Printf("served accuracy on %d held-out samples: %.1f%%\n",
		test.N(), 100*float64(correct)/float64(test.N()))

	// Verify the checkpoint/resume guarantee: the interrupted job's model
	// is bit-identical to an uninterrupted run with the same seed.
	ref, err := eigenpro.Train(cfg, train.X, train.Y)
	if err != nil {
		log.Fatal(err)
	}
	jobModel, _ := mgr.Model(id)
	for i, v := range jobModel.Alpha.Data {
		if v != ref.Model.Alpha.Data[i] {
			log.Fatalf("coefficient %d differs from the uninterrupted run", i)
		}
	}
	fmt.Println("cancel+resume model is bit-identical to the uninterrupted run ✓")
	st := srv.Stats()
	fmt.Printf("served %d requests in %d micro-batches (mean occupancy %.1f), p99 latency %v\n",
		st.Requests, st.Batches, st.MeanOccupancy, st.P99)

	durabilityWalkthrough(cfg, train.X, train.Y, ref.Model)
}

// durabilityWalkthrough is the kill/restart act: the same train → serve
// loop, but with a -state-dir-style persistent manager that survives its
// process. The manager is shut down mid-run — standing in for a crash or a
// SIGTERM (the `eigenpro serve` command wires the real signals) — and a
// freshly opened manager on the same state directory replays the journal,
// auto-resumes the interrupted job from its epoch checkpoint, and finishes
// with coefficients bit-identical to the uninterrupted run.
func durabilityWalkthrough(cfg eigenpro.Config, x, y *eigenpro.Matrix, ref *eigenpro.Model) {
	fmt.Println()
	fmt.Println("— durability: kill the manager mid-run, restart, resume —")
	stateDir, err := os.MkdirTemp("", "eigenpro-state-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(stateDir)

	mgr, err := eigenpro.OpenTrainingManager(eigenpro.TrainingConfig{
		Workers:  1,
		StateDir: stateDir, // ← every transition journaled, checkpoints on disk
	})
	if err != nil {
		log.Fatal(err)
	}
	id, err := eigenpro.SubmitTraining(mgr, eigenpro.TrainingSpec{
		Name: "mnist", Config: cfg, X: x, Y: y,
	})
	if err != nil {
		log.Fatal(err)
	}
	for { // let it get some epochs in before the "crash"
		info, _ := eigenpro.JobStatus(mgr, id)
		if info.Epoch >= 2 {
			fmt.Printf("job %s at epoch %d — shutting down mid-run\n", id, info.Epoch)
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	mgr.Close() // graceful shutdown: checkpoints and journals "interrupted"

	// A new process: same state directory, nothing else carried over.
	srv2 := eigenpro.NewServer(eigenpro.ServerConfig{})
	defer srv2.Close()
	mgr2, err := eigenpro.OpenTrainingManager(eigenpro.TrainingConfig{
		Workers:   1,
		StateDir:  stateDir,
		Registrar: srv2,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer mgr2.Close()
	fmt.Printf("restarted: recovered %d job(s) from the journal\n", mgr2.Recovered())

	info, err := mgr2.Wait(id)
	if err != nil || info.State != eigenpro.JobDone {
		log.Fatalf("recovered job did not finish: %+v err=%v", info, err)
	}
	fmt.Printf("resumed from epoch checkpoint and finished after %d epochs; servable=%v\n",
		info.Epoch, info.Servable)

	m, _ := mgr2.Model(id)
	for i, v := range m.Alpha.Data {
		if v != ref.Alpha.Data[i] {
			log.Fatalf("coefficient %d differs from the uninterrupted run", i)
		}
	}
	fmt.Println("kill+restart model is bit-identical to the uninterrupted run ✓")
}
