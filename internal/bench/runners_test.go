package bench

import (
	"strconv"
	"strings"
	"testing"
)

// Smoke tests for every remaining runner at Small scale: each must produce
// a non-empty, renderable report. Gated behind -short for quick edit
// cycles.

func runReport(t *testing.T, name string, f func(Scale) (*Report, error), minRows int) {
	t.Helper()
	if testing.Short() {
		t.Skip("short mode")
	}
	rep, err := f(Small)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(rep.Rows) < minRows {
		t.Fatalf("%s: only %d rows", name, len(rep.Rows))
	}
	if !strings.Contains(rep.String(), rep.ID) {
		t.Fatalf("%s: rendering missing id", name)
	}
}

func TestTable3Runs(t *testing.T)       { runReport(t, "table3", Table3, 4) }
func TestAccelerationRuns(t *testing.T) { runReport(t, "acceleration", Acceleration, 2) }
func TestPCAStudyRuns(t *testing.T)     { runReport(t, "pca", PCAStudy, 2) }
func TestRobustnessRuns(t *testing.T)   { runReport(t, "robustness", KernelRobustness, 5) }
func TestAblationQRuns(t *testing.T)    { runReport(t, "ablation-q", AblationQ, 2) }
func TestAblationSRuns(t *testing.T)    { runReport(t, "ablation-s", AblationS, 3) }
func TestMultiGPURuns(t *testing.T)     { runReport(t, "multigpu", MultiGPU, 4) }

func TestAblationQShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rep, err := AblationQ(Small)
	if err != nil {
		t.Fatal(err)
	}
	// Every depth at or above Eq. 7's choice must converge.
	for _, row := range rep.Rows[1:] {
		if row[3] != "true" {
			t.Fatalf("depth %s did not converge", row[0])
		}
	}
}

func TestMultiGPUShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rep, err := MultiGPU(Small)
	if err != nil {
		t.Fatal(err)
	}
	// m_max must be non-decreasing in device count.
	prev := 0
	for _, row := range rep.Rows {
		mmax, err := strconv.Atoi(row[1])
		if err != nil {
			t.Fatalf("m_max cell %q: %v", row[1], err)
		}
		if mmax < prev {
			t.Fatalf("m_max shrank: %d -> %d", prev, mmax)
		}
		prev = mmax
	}
}
