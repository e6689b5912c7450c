// Command benchreport runs the selection, figure, persistence and tree-build
// benchmarks with -benchmem and writes the parsed results to a
// machine-readable JSON file (BENCH_selection.json at the repository root,
// by convention). With -compare it also diffs the fresh run against a
// previously recorded file and prints per-benchmark ns/op and allocs/op
// ratios, so CI can surface hot-path regressions in PRs at a glance. The
// comparison is informational: hardware differs between the recording and
// CI machines, so it never fails the build on its own.
//
// Usage:
//
//	go run ./cmd/benchreport                        # 20x iterations, write BENCH_selection.json
//	go run ./cmd/benchreport -benchtime 1x \
//	    -out /tmp/bench.json -compare BENCH_selection.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"

	"crowdtopk/internal/benchfmt"
)

// defaultBench covers the residual-sweep primitives, the end-to-end figure
// benchmark they dominate, the durability family (WAL append, snapshot
// compaction, cold recovery), the incremental family (live-engine
// per-answer update vs. full rebuild at several leaf-set sizes), and the
// tree build a session pays on create (full builds at the serving
// workloads' shapes, worker scaling, level-wise Extend).
const defaultBench = "BenchmarkSelectionPrimitives|BenchmarkFig1b|BenchmarkPersist|BenchmarkIncremental|BenchmarkTPOBuild|BenchmarkBuildWorkers|BenchmarkExtendWorkers"

// defaultPkgs are the packages holding those families (comma-separated for
// the -pkg flag; benchmark names are globally unique, so one report file
// can hold all of them).
const defaultPkgs = ".,./internal/persist,./internal/tpo"

func main() {
	bench := flag.String("bench", defaultBench, "benchmark regexp passed to go test -bench")
	benchtime := flag.String("benchtime", "20x", "go test -benchtime value")
	out := flag.String("out", "BENCH_selection.json", "output JSON path")
	compare := flag.String("compare", "", "previously recorded report to diff against (informational)")
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

	if err := benchfmt.WriteFile(*out, rep); err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("benchreport: %d benchmarks → %s\n", len(rep.Results), *out)

	if *compare != "" {
		if err := diff(*compare, rep); err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: compare: %v\n", err)
		}
	}
}

// parse extracts benchmark lines from go test output. Format per line:
//
//	BenchmarkName-8   <iters>   <v> ns/op   [<v> unit]...
func parse(out string) *benchfmt.Report {
	rep := &benchfmt.Report{}
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
		r := benchfmt.Result{Name: name, Iters: iters}
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
func diff(path string, fresh *benchfmt.Report) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base benchfmt.Report
	if err := json.Unmarshal(data, &base); err != nil {
		return err
	}
	byName := make(map[string]benchfmt.Result, len(base.Results))
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
	return nil
}
