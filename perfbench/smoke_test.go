package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

type benchmarkSpec struct {
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// buildServe builds the crowdtopk binary of this checkout.
func buildServe(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "crowdtopk")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/crowdtopk")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building crowdtopk: %v\n%s", err, out)
	}
	return bin
}

// small shrinks a workload to a seconds-long smoke run.
func small(w workload) workload {
	w.prefix, w.ladder = 8, 4
	if w.restart {
		w.fill = 200
	}
	return w
}

// Every workload, untraced and traced, must pass its checks and report
// exactly the metrics BENCHMARK.json names, with their units.
func TestSmokeReportsBenchmarkMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("boots servers")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	bin, work := buildServe(t), t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rep, err := run(small(w), 7, 1, traced, bin, work)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d notes=%v", w.name, traced, rep.Correct, rep.Attempted, rep.Failed, rep.notes)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", w.name, traced, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: no metric %s", w.name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: %s in %s, BENCHMARK.json says %s", w.name, traced, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// result_distance depends only on the seed: two runs of the same code agree
// exactly.
func TestResultDistanceRepeats(t *testing.T) {
	if testing.Short() {
		t.Skip("boots servers")
	}
	bin, work := buildServe(t), t.TempDir()
	w, err := workloadByName("durable")
	if err != nil {
		t.Fatal(err)
	}
	var got []float64
	for i := 0; i < 2; i++ {
		rep, err := run(small(w), 11, 1, false, bin, work)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rep.Metrics["result_distance"].Value)
	}
	if got[0] != got[1] || got[0] == 0 {
		t.Errorf("result_distance %v across two runs of seed 11, want equal and nonzero", got)
	}
}
