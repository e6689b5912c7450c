package main

import (
	"strings"
	"testing"
)

func fig1bRow(name string, distance, questions, leaves float64) Result {
	return Result{Name: "BenchmarkFig1b/" + name, NsPerOp: 1,
		Metrics: map[string]float64{"distance": distance, "questions": questions, "leaves": leaves}}
}

func TestQualityDiffs(t *testing.T) {
	base := &Report{Results: []Result{
		fig1bRow("T1-on/B=5", 0.04343, 5, 19.8),
		fig1bRow("C-off/B=5", 0.06236, 5, 33.85),
		{Name: "BenchmarkTPOBuild/N=10/K=3", NsPerOp: 1, Metrics: map[string]float64{"leaves": 40}},
	}}
	cases := []struct {
		name  string
		fresh []Result
		want  []string // substrings, one per reported difference
	}{
		{"identical", []Result{
			fig1bRow("T1-on/B=5", 0.04343, 5, 19.8),
			fig1bRow("C-off/B=5", 0.06236, 5, 33.85),
		}, nil},
		{"timings and other rows are not gated", []Result{
			{Name: "BenchmarkFig1b/T1-on/B=5", NsPerOp: 9, Metrics: map[string]float64{"distance": 0.04343, "questions": 5, "leaves": 19.8}},
			fig1bRow("C-off/B=5", 0.06236, 5, 33.85),
			{Name: "BenchmarkTPOBuild/N=10/K=3", NsPerOp: 1, Metrics: map[string]float64{"leaves": 41}},
		}, nil},
		{"distance moved", []Result{
			fig1bRow("T1-on/B=5", 0.04344, 5, 19.8),
			fig1bRow("C-off/B=5", 0.06236, 5, 33.85),
		}, []string{"T1-on/B=5: distance 0.04344, recorded 0.04343"}},
		{"questions and leaves moved", []Result{
			fig1bRow("T1-on/B=5", 0.04343, 4, 19.8),
			fig1bRow("C-off/B=5", 0.06236, 5, 30),
		}, []string{"T1-on/B=5: questions 4", "C-off/B=5: leaves 30"}},
		{"row missing", []Result{
			fig1bRow("T1-on/B=5", 0.04343, 5, 19.8),
		}, []string{"C-off/B=5: missing"}},
		{"metric missing", []Result{
			fig1bRow("T1-on/B=5", 0.04343, 5, 19.8),
			{Name: "BenchmarkFig1b/C-off/B=5", NsPerOp: 1, Metrics: map[string]float64{"distance": 0.06236, "questions": 5}},
		}, []string{"C-off/B=5: leaves 0, recorded 33.85"}},
		{"no Fig1b rows run", []Result{
			{Name: "BenchmarkTPOBuild/N=10/K=3", NsPerOp: 1},
		}, nil},
	}
	for _, c := range cases {
		got := qualityDiffs(base, &Report{Results: c.fresh})
		if len(got) != len(c.want) {
			t.Fatalf("%s: got %q, want %d differences", c.name, got, len(c.want))
		}
		for i, w := range c.want {
			if !strings.Contains(got[i], w) {
				t.Fatalf("%s: difference %d is %q, want it to contain %q", c.name, i, got[i], w)
			}
		}
	}
}
