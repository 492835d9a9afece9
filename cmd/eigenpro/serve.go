package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"eigenpro"
)

// runServe implements the serve subcommand: load a saved model (or train a
// fresh one on a synthetic dataset when -model is empty), register it, and
// expose the batched prediction endpoint over HTTP — together with the
// async training-job endpoints, so POST /train → GET /jobs/{id} → POST
// /v1/predict closes the train → serve loop on one process.
//
// With -state-dir the job manager runs in crash-safe persistent mode:
// lifecycle transitions are journaled, running jobs checkpoint each epoch,
// and restarting with the same directory recovers every job — finished
// models become servable again and interrupted jobs resume bit-exactly.
// SIGTERM/SIGINT triggers graceful shutdown: admission closes (/readyz
// turns 503 "draining"), in-flight predictions flush within -drain-timeout,
// the HTTP listener shuts down, and running jobs checkpoint to disk.
func runServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	modelPath := fs.String("model", "", "gob model to serve (from eigenpro -save); empty trains a fresh one")
	name := fs.String("name", "default", "name to register the model under")
	addr := fs.String("addr", ":8095", "HTTP listen address")
	maxBatch := fs.Int("max-batch", 0, "micro-batch size cap (0 = device m_max)")
	queue := fs.Int("queue", 1024, "request queue depth per model (admission control)")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	timeout := fs.Duration("timeout", 2*time.Second, "default per-request deadline")
	shed := fs.Bool("shed", false, "deadline-aware admission: reject requests whose deadline cannot survive the estimated queue wait (429)")
	metricsOn := fs.Bool("metrics", true, "expose GET /metrics and GET /debug/events")
	pprofOn := fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	logFile := fs.String("log-file", "", "mirror wide events as JSON lines to this file (empty: ring only; \"-\" for stderr)")
	logEvery := fs.Int("log-every", 1, "keep 1-in-N ok events (warn/error always kept)")
	sloLatencyP99 := fs.Duration("slo-latency-p99", 0, "latency SLO: requests must complete within this long (0 disables the objective)")
	sloAvailability := fs.Float64("slo-availability", 0, "availability SLO target in (0,1), e.g. 0.999 (0 disables the objective)")
	sloWindow := fs.Duration("slo-window", 5*time.Minute, "fast burn-rate window (the slow window is 6x this)")
	sloTarget := fs.Float64("slo-latency-target", 0.99, "latency SLO: required under-threshold fraction")
	flightDir := fs.String("flight-dir", "", "flight-recorder snapshot directory (empty: <tmp>/eigenpro-flight)")
	flightProfile := fs.Duration("flight-profile", 5*time.Second, "flight-recorder CPU-profile length per snapshot (<0 disables the CPU profile)")
	flightInterval := fs.Duration("flight-interval", 5*time.Minute, "minimum spacing between flight snapshots")
	trainWorkers := fs.Int("train-workers", 2, "training-job worker pool size")
	trainQueue := fs.Int("train-queue", 64, "pending training-job queue depth")
	stateDir := fs.String("state-dir", "", "durable state directory for crash-safe training jobs (empty: in-memory only)")
	checkpointEvery := fs.Int("checkpoint-every", 1, "checkpoint running jobs every N epoch boundaries (persistent mode)")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "graceful-shutdown budget for flushing in-flight predictions")
	dataset := fs.String("dataset", "mnist", "fallback training dataset when -model is empty")
	n := fs.Int("n", 1000, "fallback training samples")
	sigma := fs.Float64("sigma", 5, "fallback training kernel bandwidth")
	epochs := fs.Int("epochs", 5, "fallback training epochs")
	seed := fs.Int64("seed", 1, "fallback training seed")
	fs.Parse(args)
	noArgs(fs)

	// One registry and one wide-event log shared by serving, the job
	// manager, and (through it) the per-job trainers: a single /metrics
	// scrape or /debug/events query covers the whole process.
	reg := eigenpro.NewMetricsRegistry()
	events := eigenpro.NewEventLog(0)
	events.SetSampleEvery(*logEvery)
	switch *logFile {
	case "":
	case "-":
		events.SetSink(os.Stderr, eigenpro.EventInfo)
	default:
		f, err := os.OpenFile(*logFile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "open -log-file: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		events.SetSink(f, eigenpro.EventInfo)
	}
	// SLO judgment layer: declarative objectives evaluated from the shared
	// registry/event log by a background poller, with a flight recorder
	// armed to snapshot the process on every escalation to page.
	var sloEval *eigenpro.SLOEvaluator
	var flight *eigenpro.FlightRecorder
	if *sloLatencyP99 > 0 || *sloAvailability > 0 {
		var err error
		flight, err = eigenpro.NewFlightRecorder(eigenpro.FlightConfig{
			Dir:         *flightDir,
			CPUProfile:  *flightProfile,
			MinInterval: *flightInterval,
			Events:      events,
			Registries:  []*eigenpro.MetricsRegistry{reg},
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "flight recorder: %v\n", err)
			os.Exit(1)
		}
		var objectives []eigenpro.SLOObjective
		if *sloAvailability > 0 {
			objectives = append(objectives, eigenpro.SLOObjective{
				Kind:   eigenpro.SLOAvailability,
				Target: *sloAvailability,
			})
		}
		if *sloLatencyP99 > 0 {
			objectives = append(objectives, eigenpro.SLOObjective{
				Kind:       eigenpro.SLOLatency,
				Target:     *sloTarget,
				LatencyP99: *sloLatencyP99,
			})
		}
		sloEval, err = eigenpro.NewSLOEvaluator(eigenpro.SLOConfig{
			Objectives: objectives,
			Window:     *sloWindow,
			Source:     reg,
			Events:     events,
			Flight:     flight,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "slo: %v\n", err)
			os.Exit(1)
		}
		defer sloEval.Close()
		fmt.Printf("slo: %d objective(s), window %v (slow %v), flight snapshots under %s\n",
			len(objectives), *sloWindow, 6**sloWindow, flight.Dir())
	}
	srv := eigenpro.NewServer(eigenpro.ServerConfig{
		MaxBatch:   *maxBatch,
		QueueDepth: *queue,
		Workers:    *workers,
		Timeout:    *timeout,
		Shed:       *shed,
		Metrics:    reg,
		Events:     events,
		SLO:        sloEval,
		Flight:     flight,
	})
	defer srv.Close()

	// The manager comes up before the model decision: in persistent mode
	// recovery replays the journal here, re-registering finished models
	// into srv and auto-resuming interrupted jobs — which can make the
	// fallback training below unnecessary.
	mgr, err := eigenpro.OpenTrainingManager(eigenpro.TrainingConfig{
		Workers:         *trainWorkers,
		QueueDepth:      *trainQueue,
		Registrar:       srv,
		Metrics:         reg,
		Events:          events,
		SLO:             sloEval,
		Flight:          flight,
		StateDir:        *stateDir,
		CheckpointEvery: *checkpointEvery,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "open training manager: %v\n", err)
		os.Exit(1)
	}
	defer mgr.Close()
	if *stateDir != "" {
		fmt.Printf("durable job state under %s; recovered %d job(s)\n", *stateDir, mgr.Recovered())
	}

	switch {
	case *modelPath != "":
		if err := srv.LoadModelFile(*name, *modelPath); err != nil {
			fmt.Fprintf(os.Stderr, "load model: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("serving model %q from %s\n", *name, *modelPath)
	case len(srv.Models()) > 0:
		// Recovery restored at least one finished model; no fallback needed.
		fmt.Printf("serving recovered model(s): %s\n", strings.Join(srv.Models(), ", "))
	default:
		m, err := trainFallback(*dataset, *n, *sigma, *epochs, *seed, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "train fallback model: %v\n", err)
			os.Exit(1)
		}
		if err := srv.Register(*name, m); err != nil {
			fmt.Fprintf(os.Stderr, "register model: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("serving freshly trained %s model as %q\n", *dataset, *name)
	}

	if mdl, ok := srv.Model(*name); ok {
		mmax, _ := srv.MaxBatch(*name)
		fmt.Printf("model: %d centers, %d features, %d outputs; micro-batch m_max=%d\n",
			mdl.X.Rows, mdl.X.Cols, mdl.Alpha.Cols, mmax)
	}
	mux := http.NewServeMux()
	mux.Handle("/", eigenpro.NewTrainServeHandler(srv, mgr))
	endpoints := "POST /v1/predict, POST /train, GET /jobs, GET /readyz"
	if sloEval != nil {
		endpoints += ", GET /debug/slo, GET /debug/flight"
	}
	if *metricsOn {
		endpoints += ", GET /metrics"
	} else {
		mux.HandleFunc("/metrics", http.NotFound)
		mux.HandleFunc("/debug/events", http.NotFound)
	}
	if *pprofOn {
		mux.Handle("/debug/pprof/", eigenpro.PprofHandler())
		endpoints += ", GET /debug/pprof/"
	}
	fmt.Printf("listening on %s — %s\n", *addr, endpoints)

	// Graceful shutdown: SIGTERM/SIGINT closes admission (Predict returns
	// 503, /readyz reports "draining"), flushes in-flight predictions
	// within -drain-timeout, stops the HTTP listener, and lets the deferred
	// mgr.Close checkpoint running jobs — so a later restart with the same
	// -state-dir resumes them bit-exactly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	httpSrv := &http.Server{Addr: *addr, Handler: mux}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errCh:
		if err != nil && err != http.ErrServerClosed {
			fmt.Fprintf(os.Stderr, "serve: %v\n", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		stop() // a second signal kills the process immediately
		fmt.Printf("signal received; draining in-flight requests (budget %v)...\n", *drainTimeout)
		if err := srv.Drain(*drainTimeout); err != nil {
			fmt.Fprintf(os.Stderr, "drain: %v\n", err)
		}
		shutCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			fmt.Fprintf(os.Stderr, "http shutdown: %v\n", err)
		}
		// Checkpoint running jobs now (idempotent with the deferred call)
		// so the "shut down" line below truthfully means state is durable.
		mgr.Close()
		fmt.Println("shut down cleanly")
	}
}

// trainFallback trains a small model so the server is usable without a
// saved artifact. Its per-epoch telemetry reports into the shared
// registry under job="startup", so /metrics carries trainer series even
// before the first POST /train.
func trainFallback(dataset string, n int, sigma float64, epochs int, seed int64, reg *eigenpro.MetricsRegistry) (*eigenpro.Model, error) {
	ds, err := datasetByName(dataset, n, seed)
	if err != nil {
		return nil, err
	}
	fmt.Printf("no -model given; training on %d %s-like samples...\n", ds.N(), dataset)
	res, err := eigenpro.Train(eigenpro.Config{
		Kernel:  eigenpro.GaussianKernel(sigma),
		Epochs:  epochs,
		Seed:    seed,
		OnEpoch: eigenpro.ObserveTraining(reg, eigenpro.Label("job", "startup")),
	}, ds.X, ds.Y)
	if err != nil {
		return nil, err
	}
	fmt.Printf("trained to mse %.4g in %v wall\n", res.FinalTrainMSE, res.WallTime.Round(time.Millisecond))
	return res.Model, nil
}
