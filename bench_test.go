package eigenpro

// One benchmark per table and figure of the paper's evaluation. Each bench
// regenerates the corresponding artifact at Small scale via the runners in
// internal/bench; run with
//
//	go test -bench=. -benchmem
//
// cmd/experiments prints the full tables at larger scales.

import (
	"testing"

	"eigenpro/internal/bench"
)

func benchReport(b *testing.B, f func(bench.Scale) (*bench.Report, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := f(bench.Small)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) == 0 {
			b.Fatal("empty report")
		}
	}
}

// BenchmarkFigure2 regenerates Figure 2 (and the schematic Figure 1): time
// to a fixed train MSE vs batch size for SGD, EigenPro 1.0 and
// EigenPro 2.0 on MNIST-like and TIMIT-like workloads.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reps, err := bench.Figure2(bench.Small)
		if err != nil {
			b.Fatal(err)
		}
		if len(reps) != 2 {
			b.Fatalf("want 2 reports, got %d", len(reps))
		}
	}
}

// BenchmarkFigure3a regenerates Figure 3a: per-iteration time vs batch size
// on actual (parallel), ideal, and sequential devices.
func BenchmarkFigure3a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := bench.Figure3a(bench.Small); len(r.Rows) == 0 {
			b.Fatal("empty report")
		}
	}
}

// BenchmarkFigure3b regenerates Figure 3b: per-epoch device time vs batch
// size across model sizes n.
func BenchmarkFigure3b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := bench.Figure3b(bench.Small); len(r.Rows) == 0 {
			b.Fatal("empty report")
		}
	}
}

// BenchmarkTable1 regenerates Table 1: per-iteration compute/memory of
// improved vs original EigenPro vs SGD (formulas + measured overhead).
func BenchmarkTable1(b *testing.B) { benchReport(b, bench.Table1) }

// BenchmarkTable2 regenerates Table 2: error and resource time of
// EigenPro 2.0 vs EigenPro 1.0 vs FALKON across four dataset stand-ins.
func BenchmarkTable2(b *testing.B) { benchReport(b, bench.Table2) }

// BenchmarkTable3 regenerates Table 3: interactive-training wall time of
// EigenPro 2.0 vs the ThunderSVM-like and LibSVM-like SMO baselines.
func BenchmarkTable3(b *testing.B) { benchReport(b, bench.Table3) }

// BenchmarkTable4 regenerates Table 4: automatically calculated parameters
// (q, adjusted q, m = m_G, η) per dataset.
func BenchmarkTable4(b *testing.B) { benchReport(b, bench.Table4) }

// BenchmarkAcceleration regenerates the §3 acceleration claim: predicted
// a = (β/β_G)·(m_max/m*) vs measured speedup.
func BenchmarkAcceleration(b *testing.B) { benchReport(b, bench.Acceleration) }

// BenchmarkPCA regenerates the §5.5 PCA dimensionality-reduction study.
func BenchmarkPCA(b *testing.B) { benchReport(b, bench.PCAStudy) }

// BenchmarkKernelRobustness regenerates the §5.5 Laplacian-vs-Gaussian
// bandwidth robustness study.
func BenchmarkKernelRobustness(b *testing.B) { benchReport(b, bench.KernelRobustness) }

// BenchmarkAblationQ regenerates the Remark 3.1 ablation: preconditioning
// depths around the Eq. 7 choice.
func BenchmarkAblationQ(b *testing.B) { benchReport(b, bench.AblationQ) }

// BenchmarkAblationS regenerates the subsample-size ablation for the fixed
// coordinate block (the paper's §5 s-selection rule).
func BenchmarkAblationS(b *testing.B) { benchReport(b, bench.AblationS) }

// BenchmarkMultiGPU regenerates the §6 future-work study: adaptivity
// across data-parallel device groups.
func BenchmarkMultiGPU(b *testing.B) { benchReport(b, bench.MultiGPU) }

// BenchmarkServing measures batched vs unbatched serving throughput
// (requests/sec vs concurrent clients) with micro-batches sized to the
// device model's m_max — tracking the serving-path trajectory the same way
// the training benchmarks track the paper's artifacts.
func BenchmarkServing(b *testing.B) { benchReport(b, bench.ServingThroughput) }

// BenchmarkOverloadServing measures how batch occupancy and goodput hold
// up at 2x saturation with 25% client cancellation — the request-lifecycle
// hardening (cancellation propagation, greedy drain, deadline-aware
// shedding) as a measured workload.
func BenchmarkOverloadServing(b *testing.B) { benchReport(b, bench.OverloadServing) }

// BenchmarkTrainingJobs measures async training-job throughput and
// submit-to-servable latency across job-manager worker-pool sizes — the
// train → serve loop as a managed workload.
func BenchmarkTrainingJobs(b *testing.B) { benchReport(b, bench.TrainingJobs) }
