// Command perfbench is the repository's end-to-end benchmark. Each run
// executes one workload in a fresh process, checks the program's outputs,
// prints every metric with its unit and sample count, and ends with one
// JSON line:
//
//	bash perfbench/run.sh --workload train-mnist --seed 1 --seconds 8 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 records spans around
// every call into the library or the server, re-times the layers with
// standalone probes, and prints the per-layer metrics instead. README.md
// describes the workloads and which layer metric should move which
// end-to-end metric.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	tiny     bool
	bin      string
	workdir  string
	root     string
}

// phase is the length of each measured phase.
func (o options) phase() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// pick returns full or, for smoke tests, tiny.
func pick[T any](o options, full, tiny T) T {
	if o.tiny {
		return tiny
	}
	return full
}

var workloads = map[string]func(options, *tracer) (*result, error){
	"train-mnist":          trainMNIST,
	"serve-mnist":          serveMNIST,
	"trainserve-http-susy": trainServeHTTPSUSY,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "train-mnist, serve-mnist or trainserve-http-susy")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are drawn from")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of each measured phase, in seconds")
	trace := fs.Int("trace", 0, "1 records spans, runs probes and prints the per-layer metrics")
	scale := fs.String("scale", "full", "problem sizes: full, or tiny for smoke tests")
	fs.StringVar(&o.bin, "eigenpro", ".bench_build/bin/eigenpro", "eigenpro binary built from the tree under test")
	fs.StringVar(&o.workdir, "workdir", ".bench_build", "directory for artifacts, server state and span files")
	fs.StringVar(&o.root, "root", ".", "repository root, hashed to name the code when the binary carries no VCS revision")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[o.workload]
	if !ok || (*scale != "full" && *scale != "tiny") || o.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need -workload in %v, -scale full|tiny and -seconds > 0\n", sortedKeys(workloads))
		return 2
	}
	o.traced, o.tiny = *trace != 0, *scale == "tiny"

	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%g trace=%d scale=%s\n",
		o.workload, o.seed, o.seconds, *trace, *scale)
	for _, h := range hostInfo(o.root) {
		fmt.Fprintf(stdout, "# host %s=%v\n", h.Key, h.Value)
	}
	var tr *tracer
	if o.traced {
		tr = newTracer(1 << 18)
	}
	r, err := w(o, tr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if o.traced {
		spans := tr.snapshot()
		wall := tr.now() - r.untracedNS
		cov := float64(0)
		if wall > 0 {
			cov = coverage(spans, 0, tr.now()) * float64(tr.now()) / float64(wall)
		}
		r.layer["trace.coverage"] = metric{Value: cov, Samples: len(spans),
			Note: "share of the run's wall time inside spans, untraced comparison phase excluded"}
		summarize(stdout, spans)
		path := filepath.Join(o.workdir, "spans", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
		if err := writeSpans(path, spans); err != nil {
			fmt.Fprintf(stderr, "perfbench: write spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "# spans written to %s\n", path)
	}
	if err := report(stdout, r, o.traced); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !r.correct() {
		fmt.Fprintln(stderr, "perfbench: a correctness check failed")
		return 1
	}
	return 0
}
