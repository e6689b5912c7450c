// Command benchreport runs the selection, figure, persistence, tree-build
// and π-cache benchmarks with -benchmem and writes the parsed results to a
// machine-readable JSON file (BENCH_selection.json at the repository root,
// by convention). With -compare it also diffs the fresh run against a
// previously recorded file and prints per-benchmark ns/op and allocs/op
// ratios, so CI can surface hot-path regressions in PRs at a glance. The
// timing comparison is informational: hardware differs between the
// recording and CI machines, so it never fails the build on its own.
//
// The paper's result-quality numbers are a gate instead. BenchmarkFig1b
// reports the mean distance to the true top-K, questions asked and
// orderings left over b.N seeded worlds, so two runs at the same
// -benchtime must report them exactly. When the fresh run and the recorded
// file share a -benchtime, -compare exits non-zero if any recorded
// BenchmarkFig1b row's distance, questions or leaves differs or is missing.
// At different benchtimes (the one-iteration smoke run) the rows average
// over different worlds and the check only prints the differences.
//
// Usage:
//
//	go run ./cmd/benchreport                        # 20x iterations, write BENCH_selection.json
//	go run ./cmd/benchreport -benchtime 1x \
//	    -out /tmp/bench.json -compare BENCH_selection.json
//	go run ./cmd/benchreport -pkg . -bench '^BenchmarkFig1b$' -benchtime 20x \
//	    -out /tmp/fig1b.json -compare BENCH_selection.json   # quality gate
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// Result is one benchmark line of a report.
type Result struct {
	Name    string             `json:"name"`
	Iters   int64              `json:"iterations"`
	NsPerOp float64            `json:"ns_per_op"`
	BPerOp  float64            `json:"bytes_per_op,omitempty"`
	Allocs  float64            `json:"allocs_per_op,omitempty"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is the file schema of BENCH_selection.json.
type Report struct {
	Bench     string   `json:"bench"`
	Benchtime string   `json:"benchtime"`
	GoOS      string   `json:"goos,omitempty"`
	GoArch    string   `json:"goarch,omitempty"`
	CPU       string   `json:"cpu,omitempty"`
	Results   []Result `json:"results"`
}

// defaultBench covers the residual-sweep primitives, the end-to-end figure
// benchmark they dominate, the durability family (WAL append, snapshot
// compaction, cold recovery), the create path (session.New at the serving
// workloads' shapes), the hydrate path (session.Restore of a mid-query
// checkpoint at those shapes), the answer path (a served session's
// SubmitAnswer per strategy, and the live engine's reconcile-and-sweep vs. a
// full rebuild on min-kill sequences at several leaf-set sizes), the tree
// build a session pays on create (full builds at the serving workloads'
// shapes, worker scaling, level-wise Extend), and the π-cache fill that
// precedes it (Prewarm of a freshly parsed dataset at those shapes).
const defaultBench = "BenchmarkSelectionPrimitives|BenchmarkFig1b|BenchmarkPersist|BenchmarkSessionCreate|BenchmarkSessionRestore|BenchmarkSessionAnswer|BenchmarkIncremental|BenchmarkTPOBuild|BenchmarkBuildWorkers|BenchmarkExtendWorkers|BenchmarkPCachePrewarm"

// qualityPrefix and qualityMetrics name the gated rows and metrics.
const qualityPrefix = "BenchmarkFig1b/"

var qualityMetrics = []string{"distance", "questions", "leaves"}

// defaultPkgs are the packages holding those families (comma-separated for
// the -pkg flag; benchmark names are globally unique, so one report file
// can hold all of them).
const defaultPkgs = ".,./internal/persist,./internal/tpo,./internal/pcache"

func main() {
	bench := flag.String("bench", defaultBench, "benchmark regexp passed to go test -bench")
	benchtime := flag.String("benchtime", "20x", "go test -benchtime value")
	out := flag.String("out", "BENCH_selection.json", "output JSON path")
	compare := flag.String("compare", "", "previously recorded report to diff against (timings informational, Fig1b quality gated)")
	pkg := flag.String("pkg", defaultPkgs, "comma-separated packages to benchmark")
	flag.Parse()

	args := []string{"test", "-run", "^$",
		"-bench", *bench, "-benchmem", "-benchtime", *benchtime, "-count", "1"}
	args = append(args, strings.Split(*pkg, ",")...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: go test: %v\n%s", err, raw)
		os.Exit(1)
	}
	rep := parse(string(raw))
	rep.Bench = *bench
	rep.Benchtime = *benchtime

	if err := writeReport(*out, rep); err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("benchreport: %d benchmarks → %s\n", len(rep.Results), *out)

	if *compare != "" {
		base, err := readReport(*compare)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: compare: %v\n", err)
			return
		}
		diff(*compare, base, rep)
		diffs := qualityDiffs(base, rep)
		if len(diffs) == 0 {
			return
		}
		gated := base.Benchtime == rep.Benchtime
		verdict := "differ at a different -benchtime (informational)"
		if gated {
			verdict = "FAIL: differ from the recording at the same -benchtime"
		}
		fmt.Printf("result-quality metrics %s:\n", verdict)
		for _, d := range diffs {
			fmt.Println("  " + d)
		}
		if gated {
			os.Exit(1)
		}
	}
}

// writeReport marshals the report (indented, trailing newline) to path.
func writeReport(path string, rep *Report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// readReport loads a report written by writeReport.
func readReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// parse extracts benchmark lines from go test output. Format per line:
//
//	BenchmarkName-8   <iters>   <v> ns/op   [<v> unit]...
func parse(out string) *Report {
	rep := &Report{}
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		name := fields[0]
		// Strip the -<GOMAXPROCS> suffix, but only when it is all digits:
		// benchmark names themselves contain hyphens (T1-on, TB-off).
		if i := strings.LastIndex(name, "-"); i > 0 && i < len(name)-1 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		r := Result{Name: name, Iters: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				r.NsPerOp = v
			case "B/op":
				r.BPerOp = v
			case "allocs/op":
				r.Allocs = v
			default:
				if r.Metrics == nil {
					r.Metrics = map[string]float64{}
				}
				r.Metrics[unit] = v
			}
		}
		rep.Results = append(rep.Results, r)
	}
	return rep
}

// diff prints fresh/recorded ratios for benchmarks present in both reports.
func diff(path string, base, fresh *Report) {
	byName := make(map[string]Result, len(base.Results))
	for _, r := range base.Results {
		byName[r.Name] = r
	}
	fmt.Printf("comparison against %s (ratio >1 = slower/more than recorded):\n", path)
	for _, r := range fresh.Results {
		b, ok := byName[r.Name]
		if !ok || b.NsPerOp == 0 {
			continue
		}
		line := fmt.Sprintf("  %-60s ns/op ×%.2f", r.Name, r.NsPerOp/b.NsPerOp)
		if b.Allocs > 0 {
			line += fmt.Sprintf("  allocs/op ×%.2f", r.Allocs/b.Allocs)
		}
		fmt.Println(line)
	}
}

// qualityDiffs lists every recorded result-quality row whose gated metrics
// the fresh run reports differently, or does not report. A fresh run that
// holds no such row at all (another -bench selection) is not compared.
func qualityDiffs(base, fresh *Report) []string {
	byName := make(map[string]Result, len(fresh.Results))
	for _, r := range fresh.Results {
		if strings.HasPrefix(r.Name, qualityPrefix) {
			byName[r.Name] = r
		}
	}
	if len(byName) == 0 {
		return nil
	}
	var out []string
	for _, b := range base.Results {
		if !strings.HasPrefix(b.Name, qualityPrefix) {
			continue
		}
		r, ok := byName[b.Name]
		if !ok {
			out = append(out, b.Name+": missing from this run")
			continue
		}
		for _, m := range qualityMetrics {
			want, wok := b.Metrics[m]
			got, gok := r.Metrics[m]
			if wok != gok || want != got {
				out = append(out, fmt.Sprintf("%s: %s %g, recorded %g", b.Name, m, got, want))
			}
		}
	}
	return out
}
