// Serving: train a small model, stand up the batched inference server, fire
// concurrent clients at it, and print the serving statistics — the paper's
// device-adaptive batching discipline applied to the prediction path.
//
// A request runs as soon as a worker is free; the requests that arrive
// while the workers are busy coalesce into micro-batches of up to the
// device model's m_max. How full the batches get follows the load. The
// device columns of the stats are simulated: the device model charges a
// fixed launch plus execution wave per batch, so the lighter the load and
// the smaller the batches, the more simulated device time the same
// requests cost, while their wall-clock latency falls.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"eigenpro"
)

func main() {
	// Train a small MNIST-like model (the expensive, once-per-deployment
	// step).
	ds := eigenpro.MNISTLike(900, 1)
	train, test := ds.Split(0.8, 1)
	res, err := eigenpro.Train(eigenpro.Config{
		Kernel: eigenpro.GaussianKernel(5),
		Epochs: 4,
		Seed:   1,
	}, train.X, train.Y)
	if err != nil {
		log.Fatal(err)
	}
	model := res.Model
	fmt.Printf("trained: %d centers, train mse %.3g, wall %v\n",
		model.X.Rows, res.FinalTrainMSE, res.WallTime.Round(time.Millisecond))

	dev := eigenpro.SimTitanXp()
	fmt.Printf("device %s sizes the serving micro-batch at m_max=%d\n",
		dev.Name, dev.ServeBatch(model.X.Rows, model.X.Cols, model.Alpha.Cols))

	// Stand up the server and register the model under a name; a retrained
	// model could later be hot-swapped with another Register call.
	srv := eigenpro.NewServer(eigenpro.ServerConfig{})
	defer srv.Close()
	if err := srv.Register("mnist", model); err != nil {
		log.Fatal(err)
	}

	// Fire concurrent closed-loop clients, each classifying test rows. Every
	// tenth request is canceled by its caller before it is issued — an
	// impatient client hanging up. The server reaps those requests before
	// they reach the device (the "abandoned" row of the stats below), so no
	// device time is spent computing responses nobody reads, and the latency
	// quantiles carry only delivered responses.
	const (
		clients   = 32
		perClient = 40
		cancelNth = 10
	)
	var correct, total, hungUp atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				ctx := context.Background()
				if i%cancelNth == cancelNth-1 {
					cctx, cancel := context.WithCancel(ctx)
					cancel()
					ctx = cctx
				}
				row := (c*perClient + i) % test.N()
				label, err := srv.PredictLabel(ctx, "mnist", test.X.RowView(row))
				if err != nil {
					if errors.Is(err, context.Canceled) {
						hungUp.Add(1)
						continue
					}
					log.Printf("client %d: %v", c, err)
					return
				}
				total.Add(1)
				if label == test.Labels[row] {
					correct.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)

	fmt.Printf("\n%d clients × %d requests (%d hung up): %.1f%% accuracy in %v wall\n",
		clients, perClient, hungUp.Load(),
		100*float64(correct.Load())/float64(total.Load()), wall.Round(time.Millisecond))
	fmt.Println()
	fmt.Print(srv.Stats())

	fmt.Printf("\nunbatched, the device model charges each request its own launch + wave;\n")
	fmt.Printf("coalescing packed %.1f requests per micro-batch on average instead.\n",
		srv.Stats().MeanOccupancy)
}
