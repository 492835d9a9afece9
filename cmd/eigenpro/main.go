// Command eigenpro trains an EigenPro 2.0 kernel machine on one of the
// synthetic benchmark datasets and prints the automatically selected
// parameters, per-epoch progress, and final accuracy.
//
// Usage:
//
//	eigenpro [-dataset mnist|cifar10|svhn|timit|susy|imagenet] [-n 2000]
//	         [-kernel gaussian|laplacian|cauchy] [-sigma 5] [-epochs 10]
//	         [-method eigenpro2|eigenpro1|sgd] [-seed 1]
//
// The train subcommand runs the same workload through the async
// training-job manager — submit, watch per-epoch status, optionally cancel
// at an epoch boundary (taking a checkpoint) and resume bit-for-bit:
//
//	eigenpro train [-dataset mnist] [-n 2000] [-epochs 10] [-name default]
//	               [-cancel-after-epoch 0] [-save model.gob]
//
// The serve subcommand loads (or trains) a model and serves batched
// predictions over HTTP JSON; it also exposes the training-job endpoints
// (POST /train, GET /jobs, ...) so models can be trained and hot-deployed
// over the same server:
//
//	eigenpro serve [-model model.gob] [-addr :8095] [-max-batch 0]
//	               [-queue 1024] [-workers 0] [-train-workers 2]
//	               [-dataset mnist] [-n 1000] [-log-file events.jsonl]
//	               [-log-every 1]
//
// The top subcommand is a live terminal dashboard over a running serve
// process: it polls GET /metrics and GET /debug/events and renders
// windowed throughput, p50/p99 latency, batch occupancy, shed rate,
// per-model queues, per-job training progress, and recent warn/error
// events:
//
//	eigenpro top [-addr localhost:8095] [-interval 1s] [-once]
package main

import (
	"flag"
	"fmt"
	"os"

	"eigenpro"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "serve":
			runServe(os.Args[2:])
			return
		case "train":
			runTrainJob(os.Args[2:])
			return
		case "top":
			runTop(os.Args[2:])
			return
		}
	}
	runTrain()
}

func runTrain() {
	dataset := flag.String("dataset", "mnist", "dataset: mnist, cifar10, svhn, timit, susy, imagenet")
	n := flag.Int("n", 2000, "number of samples to generate")
	kernelName := flag.String("kernel", "gaussian", "kernel family: gaussian, laplacian, cauchy, matern32, matern52")
	sigma := flag.Float64("sigma", 5, "kernel bandwidth")
	epochs := flag.Int("epochs", 10, "maximum training epochs")
	method := flag.String("method", "eigenpro2", "optimizer: eigenpro2, eigenpro1, sgd")
	seed := flag.Int64("seed", 1, "random seed")
	autoSigma := flag.Bool("auto-sigma", false, "select the Gaussian bandwidth by cross-validation (Appendix B), ignoring -kernel/-sigma")
	savePath := flag.String("save", "", "write the trained model (gob) to this path")
	flag.Parse()

	ds, err := datasetByName(*dataset, *n, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	kern, err := eigenpro.KernelByName(*kernelName, *sigma)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var m eigenpro.Method
	switch *method {
	case "eigenpro2":
		m = eigenpro.MethodEigenPro2
	case "eigenpro1":
		m = eigenpro.MethodEigenPro1
	case "sgd":
		m = eigenpro.MethodSGD
	default:
		fmt.Fprintf(os.Stderr, "unknown method %q\n", *method)
		os.Exit(2)
	}

	train, test := ds.Split(0.8, *seed)
	fmt.Printf("dataset %s: %d train / %d test, d=%d, %d classes\n",
		ds.Name, train.N(), test.N(), ds.Dim(), ds.Classes)

	if *autoSigma {
		ladder := eigenpro.GaussianBandwidthLadder(train.X, 5, *seed)
		best, scored, err := eigenpro.SelectBandwidth(ladder, train.X, train.Y, train.Labels,
			eigenpro.BandwidthConfig{Seed: *seed})
		if err != nil {
			fmt.Fprintf(os.Stderr, "bandwidth selection failed: %v\n", err)
			os.Exit(1)
		}
		for _, c := range scored {
			fmt.Printf("  candidate %-22s cv error %.2f%%\n", c.Kernel.Name(), 100*c.Error)
		}
		kern = best
		fmt.Printf("selected %s by cross-validation\n", kern.Name())
	}

	res, err := eigenpro.Train(eigenpro.Config{
		Kernel: kern,
		Method: m,
		Epochs: *epochs,
		Seed:   *seed,
		ValX:   test.X, ValLabels: test.Labels,
	}, train.X, train.Y)
	if err != nil {
		fmt.Fprintf(os.Stderr, "training failed: %v\n", err)
		os.Exit(1)
	}

	p := res.Params
	fmt.Printf("auto-selected parameters: s=%d  m*(k)=%.1f  m_C=%d  m_S=%d  m_max=%d  q=%d (adjusted %d)  m=%d  eta=%.2f\n",
		p.S, p.MStarOriginal, p.MC, p.MS, p.MMax, p.Q, p.QAdjusted, p.Batch, p.Eta)
	fmt.Printf("predicted acceleration over plain SGD: %.1fx\n", p.Acceleration)
	for _, st := range res.History {
		fmt.Printf("  epoch %2d: train mse %.5f  val err %.2f%%  sim time %v\n",
			st.Epoch, st.TrainMSE, 100*st.ValError, st.SimTime.Round(1000))
	}
	testErr := eigenpro.ClassificationError(res.Model.Predict(test.X), test.Labels)
	fmt.Printf("final: test error %.2f%%  simulated GPU time %v  wall time %v\n",
		100*testErr, res.SimTime.Round(1000), res.WallTime.Round(1000))

	if *savePath != "" {
		f, err := os.Create(*savePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "create %s: %v\n", *savePath, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := eigenpro.SaveModel(f, res.Model); err != nil {
			fmt.Fprintf(os.Stderr, "save model: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("model written to %s\n", *savePath)
	}
}
