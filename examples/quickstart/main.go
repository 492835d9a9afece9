// Quickstart walks the paper's steps once on an MNIST-shaped dataset:
//
//  1. Steps 1-2: estimate the kernel's top spectrum, then choose the batch
//     size m = m_max, the spectral depth q and the step size η for three
//     devices. The same data and kernel adapt to each device.
//  2. Appendix B: choose the Gaussian bandwidth by cross-validation.
//  3. Train with automatic parameters, then save and reload the model.
//  4. Measure the gap to the exact interpolant K⁻¹y that training
//     converges to.
//
// The paper's interactive-training comparison (Table 3) and its batch-size
// sweep (Figure 2) are reports of cmd/experiments:
//
//	go run ./cmd/experiments -run table3
//	go run ./cmd/experiments -run figure2
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"eigenpro"
)

func main() {
	// 784 features in [0,1], 10 classes.
	ds := eigenpro.MNISTLike(1200, 1)
	train, test := ds.Split(0.8, 1)

	// Steps 1-2: m_max follows the device's parallel capacity and memory;
	// q and η follow the spectrum, so that a batch of m_max still
	// converges. A bigger device asks for deeper flattening (larger q).
	sp, err := eigenpro.EstimateSpectrum(eigenpro.GaussianKernel(5), train.X, 500, 120, 1)
	if err != nil {
		log.Fatal(err)
	}
	devices := []*eigenpro.Device{
		{Name: "laptop-gpu", ParallelOps: 5e7, MemoryFloats: 5e7,
			WaveTime: 4 * time.Millisecond, LaunchOverhead: 300 * time.Microsecond},
		eigenpro.SimTitanXp(),
		{Name: "server-gpu", ParallelOps: 6e9, MemoryFloats: 2e9,
			WaveTime: 2 * time.Millisecond, LaunchOverhead: 100 * time.Microsecond},
	}
	fmt.Printf("%-14s %6s %6s %6s %6s %8s %10s\n", "device", "m_C", "m_S", "m_max", "q", "eta", "pred accel")
	for _, dev := range devices {
		p := eigenpro.SelectParams(sp, dev, train.N(), train.Dim(), train.LabelDim())
		fmt.Printf("%-14s %6d %6d %6d %6d %8.1f %9.1fx\n",
			dev.Name, p.MC, p.MS, p.MMax, p.QAdjusted, p.Eta, p.Acceleration)
	}

	// Appendix B: the bandwidth, the one parameter left, by
	// cross-validation on a subsample over a geometric ladder centered at
	// the median pairwise distance.
	ladder := eigenpro.GaussianBandwidthLadder(train.X, 5, 1)
	best, scored, err := eigenpro.SelectBandwidth(ladder, train.X, train.Y, train.Labels,
		eigenpro.BandwidthConfig{Subsample: 300, Folds: 3, Epochs: 4, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nbandwidth search:")
	for _, c := range scored {
		marker := " "
		if c.Kernel == best {
			marker = "*"
		}
		fmt.Printf("  %s %-18s cv error %.1f%%\n", marker, c.Kernel.Name(), 100*c.Error)
	}

	// Everything but the kernel is chosen analytically on the default
	// device.
	res, err := eigenpro.Train(eigenpro.Config{Kernel: best, Epochs: 6, Seed: 1}, train.X, train.Y)
	if err != nil {
		log.Fatal(err)
	}
	p := res.Params
	fmt.Printf("\ntrained with %s: q=%d, batch=%d (m* of the original kernel %.1f), eta=%.1f\n",
		best.Name(), p.QAdjusted, p.Batch, p.MStarOriginal, p.Eta)
	fmt.Printf("train mse %.2g after %d epochs (simulated device time %v); test error %.2f%%\n",
		res.FinalTrainMSE, res.Epochs, res.SimTime.Round(time.Microsecond),
		100*eigenpro.ClassificationError(res.Model.Predict(test.X), test.Labels))

	// Persist and reload: the deployment path.
	var buf bytes.Buffer
	if err := eigenpro.SaveModel(&buf, res.Model); err != nil {
		log.Fatal(err)
	}
	size := buf.Len()
	loaded, err := eigenpro.LoadModel(&buf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("saved %d bytes; reloaded model prediction gap %g\n",
		size, eigenpro.MSE(loaded.Predict(test.X), res.Model.Predict(test.X)))

	// The adaptive kernel changes the optimization, not the solution: the
	// predictor approaches the exact minimum-norm interpolant K⁻¹y.
	exact, err := eigenpro.SolveExact(best, train.X, train.Y, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mean squared gap to the exact interpolant on test points: %.2g\n",
		eigenpro.MSE(loaded.Predict(test.X), exact.Predict(test.X)))
}
