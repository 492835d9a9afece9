package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestSelfTimeNestedSpans(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "a.inner", Start: 15, End: 20},
		{ID: 4, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 5, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past root
	}
	want := map[int64]int64{
		1: 100 - 50 - 10, // children cover [10,60] and [90,100]
		2: 30 - 5,
		3: 5,
		4: 30,
		5: 30,
	}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
	if c := coverage(spans, 0, 200); c != 0.6 {
		t.Errorf("coverage over [0,200] = %v, want 0.6", c)
	}
}

func TestPercentileCountsBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	for _, c := range []struct {
		p      float64
		value  float64
		beyond int
	}{{50, 50, 50}, {99, 99, 1}, {100, 100, 0}} {
		v, b := percentile(xs, c.p)
		if v != c.value || b != c.beyond {
			t.Errorf("p%v = %v with %d beyond, want %v with %d", c.p, v, b, c.value, c.beyond)
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the benchmark must agree
// with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestDefinitionsMatchBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	for _, c := range []struct {
		name        string
		json, bench []metricDef
	}{{"end_to_end", bj.EndToEnd, endToEnd}, {"per_layer", bj.PerLayer, perLayer}} {
		if len(c.json) != len(c.bench) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", c.name, len(c.json), len(c.bench))
			continue
		}
		for i, d := range c.bench {
			j := c.json[i]
			if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s %s, benchmark %s %s %s",
					c.name, i, j.Name, j.Unit, j.Better, d.Name, d.Unit, d.Better)
			}
		}
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(sortedKeys(workloads), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, benchmark %s", got, want)
	}
}

var (
	buildOnce sync.Once
	binPath   string
	buildErr  error
)

// eigenproBinary builds cmd/eigenpro once for the smoke tests.
func eigenproBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "perfbench-test-")
		if err != nil {
			buildErr = err
			return
		}
		binPath = filepath.Join(dir, "eigenpro")
		if out, err := exec.Command("go", "build", "-o", binPath, "eigenpro/cmd/eigenpro").CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("%w\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatalf("build eigenpro: %v", buildErr)
	}
	return binPath
}

// TestSmokeAllWorkloads runs every workload at tiny sizes in both modes
// and checks that the last line carries exactly the metrics BENCHMARK.json
// lists for the mode, with their units, and a passing correctness verdict.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take several seconds")
	}
	bin := eigenproBinary(t)
	t.Cleanup(func() { os.RemoveAll(filepath.Dir(bin)) })
	bj := loadBenchmarkJSON(t)
	for _, w := range sortedKeys(workloads) {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", w, "--seed", "5", "--seconds", "0.2", "--trace", trace,
					"-scale", "tiny", "-eigenpro", bin, "-workdir", t.TempDir(), "-root", ".."}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\nstderr: %s\nstdout: %s", code, stderr.String(), stdout.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res struct {
					Correct   bool `json:"correct"`
					Attempted int  `json:"attempted"`
					Failed    int  `json:"failed"`
					Metrics   map[string]struct {
						Value float64 `json:"value"`
						Unit  string  `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				defs := bj.EndToEnd
				if trace == "1" {
					defs = bj.PerLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("printed %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", d.Name)
					case m.Unit != d.Unit:
						t.Errorf("metric %s unit %q, BENCHMARK.json %q", d.Name, m.Unit, d.Unit)
					case trace == "0" && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, m.Value)
					}
				}
			})
		}
	}
}

func TestRejectsUnknownWorkload(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 {
		t.Fatal("unknown workload exited 0")
	}
	if stdout.Len() != 0 {
		t.Errorf("printed a result for an unknown workload: %s", stdout.String())
	}
}
