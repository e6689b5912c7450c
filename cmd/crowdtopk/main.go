// Command crowdtopk regenerates the paper's experiments, generates synthetic
// uncertain datasets, visualizes trees of possible orderings, and runs
// interactive top-K demos.
//
// Usage:
//
//	crowdtopk run  -exp fig1a [-n 20 -k 5 -trials 10 -budgets 0,5,10,20,30,40,50 -width 3.5 -workers 0 -quick]
//	crowdtopk gen  -n 20 -family uniform -width 2.0 -out data.csv
//	crowdtopk viz  -in data.csv -k 3 -out tree.dot
//	crowdtopk demo -n 6 -k 3 -budget 8 [-accuracy 0.8]
//	crowdtopk serve -addr :8080 [-workers 0 -ttl 30m -max-sessions 0]
//	crowdtopk fsck -data-dir /var/lib/crowdtopk [-repair -deep -format json]
//	crowdtopk version
//	crowdtopk list
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"crowdtopk/internal/dataset"
	"crowdtopk/internal/engine"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:])
	case "gen":
		err = cmdGen(os.Args[2:])
	case "viz":
		err = cmdViz(os.Args[2:])
	case "demo":
		err = cmdDemo(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "fsck":
		err = cmdFsck(os.Args[2:])
	case "version":
		err = cmdVersion()
	case "list":
		err = cmdList()
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "crowdtopk: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "crowdtopk:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `crowdtopk — crowdsourced top-K query processing over uncertain data

commands:
  run   regenerate a paper experiment (fig1a, fig1b, measures, noisy, nonuniform, scale)
  gen   generate a synthetic uncertain dataset as CSV
  viz   render the tree of possible orderings of a dataset as Graphviz DOT
  demo  run an end-to-end query against a simulated crowd
  serve run the asynchronous query-session HTTP API
  fsck  check (and optionally repair) a serve -data-dir offline
  version  print the binary's build identity
  list  list available experiments and algorithms`)
}

func cmdList() error {
	fmt.Println("experiments:", strings.Join(engine.ExperimentNames(), ", "))
	fmt.Println("algorithms: ", strings.Join(engine.Algorithms(), ", "))
	fmt.Println("measures:    H, Hw, ORA, ORA-FR, MPO")
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	exp := fs.String("exp", "fig1a", "experiment id (see `crowdtopk list`)")
	n := fs.Int("n", 0, "number of tuples (0 = experiment default)")
	k := fs.Int("k", 0, "result size K")
	trials := fs.Int("trials", 0, "trials per configuration")
	budgets := fs.String("budgets", "", "comma-separated budgets, e.g. 0,5,10,20")
	width := fs.Float64("width", 0, "score support width (overlap control)")
	spacing := fs.Float64("spacing", 0, "score center spacing")
	seed := fs.Int64("seed", 0, "workload seed")
	measure := fs.String("measure", "", "uncertainty measure: H, Hw, ORA, MPO")
	grid := fs.Int("grid", 0, "integration grid size")
	round := fs.Int("round", 0, "incr round size")
	workers := fs.Int("workers", 0, "parallel workers for builds, trials and cells (0 = all CPUs, 1 = sequential; results are identical)")
	quick := fs.Bool("quick", false, "small smoke-test configuration")
	format := fs.String("format", "text", "output format: text, csv, json")
	verbose := fs.Bool("v", false, "log progress per experiment cell to stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	runner, ok := engine.Experiments[*exp]
	if !ok {
		return fmt.Errorf("unknown experiment %q (have: %s)", *exp, strings.Join(engine.ExperimentNames(), ", "))
	}
	opts := engine.ExpOptions{
		N: *n, K: *k, Trials: *trials, Seed: *seed,
		Width: *width, Spacing: *spacing, Measure: *measure,
		GridSize: *grid, RoundSize: *round, Workers: *workers, Quick: *quick,
	}
	if *verbose {
		opts.Progress = os.Stderr
	}
	if *budgets != "" {
		for _, tok := range strings.Split(*budgets, ",") {
			b, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil {
				return fmt.Errorf("bad budget %q: %w", tok, err)
			}
			opts.Budgets = append(opts.Budgets, b)
		}
	}
	tbl, err := runner(opts)
	if err != nil {
		return err
	}
	return tbl.Render(os.Stdout, *format)
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	n := fs.Int("n", 20, "number of tuples")
	family := fs.String("family", "uniform", "distribution family: uniform, gaussian, triangular")
	width := fs.Float64("width", 2.0, "support width")
	spacing := fs.Float64("spacing", 0.5, "center spacing")
	hetero := fs.Float64("hetero", 0, "width heterogeneity in [0,1)")
	seed := fs.Int64("seed", 1, "generator seed")
	out := fs.String("out", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ds, err := dataset.Generate(dataset.Spec{
		N: *n, Family: dataset.Family(*family), Width: *width,
		Spacing: *spacing, HeteroWidth: *hetero, Seed: *seed,
	})
	if err != nil {
		return err
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return dataset.WriteCSV(w, ds)
}
