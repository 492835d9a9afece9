// Command experiments regenerates the paper's tables and figures against
// the simulated device and scaled synthetic workloads.
//
// Usage:
//
//	experiments [-run all|figure2|figure3a|figure3b|table1|table2|table3|table4|accel|pca|robustness|ablation-q|ablation-s|multigpu|serving|overload|jobs|obs-overhead] [-scale small|medium|large]
package main

import (
	"flag"
	"fmt"
	"os"

	"eigenpro/internal/bench"
)

func main() {
	runFlag := flag.String("run", "all", "experiment id: all, figure2, figure3a, figure3b, table1, table2, table3, table4, accel, pca, robustness, ablation-q, ablation-s, multigpu, serving, overload, jobs, obs-overhead")
	scaleFlag := flag.String("scale", "medium", "workload scale: small, medium, large")
	flag.Parse()

	var scale bench.Scale
	switch *scaleFlag {
	case "small":
		scale = bench.Small
	case "medium":
		scale = bench.Medium
	case "large":
		scale = bench.Large
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scaleFlag)
		os.Exit(2)
	}

	var reports []*bench.Report
	var err error
	switch *runFlag {
	case "all":
		reports, err = bench.All(scale)
	case "figure2":
		reports, err = bench.Figure2(scale)
	case "figure3a":
		reports = []*bench.Report{bench.Figure3a(scale)}
	case "figure3b":
		reports = []*bench.Report{bench.Figure3b(scale)}
	case "table1":
		reports, err = one(bench.Table1, scale)
	case "table2":
		reports, err = one(bench.Table2, scale)
	case "table3":
		reports, err = one(bench.Table3, scale)
	case "table4":
		reports, err = one(bench.Table4, scale)
	case "accel":
		reports, err = one(bench.Acceleration, scale)
	case "pca":
		reports, err = one(bench.PCAStudy, scale)
	case "robustness":
		reports, err = one(bench.KernelRobustness, scale)
	case "ablation-q":
		reports, err = one(bench.AblationQ, scale)
	case "ablation-s":
		reports, err = one(bench.AblationS, scale)
	case "multigpu":
		reports, err = one(bench.MultiGPU, scale)
	case "serving":
		reports, err = one(bench.ServingThroughput, scale)
	case "overload":
		reports, err = one(bench.OverloadServing, scale)
	case "jobs":
		reports, err = one(bench.TrainingJobs, scale)
	case "obs-overhead":
		reports, err = one(bench.ObsOverhead, scale)
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *runFlag)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiment failed: %v\n", err)
		os.Exit(1)
	}
	for _, r := range reports {
		fmt.Println(r)
	}
}

func one(f func(bench.Scale) (*bench.Report, error), scale bench.Scale) ([]*bench.Report, error) {
	r, err := f(scale)
	if err != nil {
		return nil, err
	}
	return []*bench.Report{r}, nil
}
