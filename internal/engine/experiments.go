package engine

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"text/tabwriter"

	"crowdtopk/internal/crowd"
	"crowdtopk/internal/dataset"
	"crowdtopk/internal/par"
	"crowdtopk/internal/tpo"
	"crowdtopk/internal/uncertainty"
)

// Table is the printable result of one experiment: rows indexed by the swept
// parameter, one column per series (algorithm, measure, accuracy...).
type Table struct {
	Name     string
	XLabel   string
	Columns  []string
	XValues  []float64
	cells    map[string]map[float64]float64 // column -> x -> value
	Footnote string
}

// NewTable creates an empty experiment table.
func NewTable(name, xLabel string, columns []string) *Table {
	return &Table{
		Name:    name,
		XLabel:  xLabel,
		Columns: columns,
		cells:   make(map[string]map[float64]float64),
	}
}

// Set records a cell value.
func (t *Table) Set(column string, x, value float64) {
	if t.cells[column] == nil {
		t.cells[column] = make(map[float64]float64)
		found := false
		for _, c := range t.Columns {
			if c == column {
				found = true
			}
		}
		if !found {
			t.Columns = append(t.Columns, column)
		}
	}
	present := false
	for _, xv := range t.XValues {
		if xv == x {
			present = true
		}
	}
	if !present {
		t.XValues = append(t.XValues, x)
		sort.Float64s(t.XValues)
	}
	t.cells[column][x] = value
}

// Get returns a cell value (0 when absent) and whether it was recorded.
func (t *Table) Get(column string, x float64) (float64, bool) {
	m, ok := t.cells[column]
	if !ok {
		return 0, false
	}
	v, ok := m[x]
	return v, ok
}

// WriteTo renders the table as aligned text.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# %s\n", t.Name)
	tw := tabwriter.NewWriter(&sb, 4, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s", t.XLabel)
	for _, c := range t.Columns {
		fmt.Fprintf(tw, "\t%s", c)
	}
	fmt.Fprintln(tw)
	for _, x := range t.XValues {
		fmt.Fprintf(tw, "%g", x)
		for _, c := range t.Columns {
			if v, ok := t.Get(c, x); ok {
				fmt.Fprintf(tw, "\t%.4g", v)
			} else {
				fmt.Fprintf(tw, "\t-")
			}
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	if t.Footnote != "" {
		fmt.Fprintf(&sb, "%s\n", t.Footnote)
	}
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

// ExpOptions parameterizes the experiment reproductions. The zero value
// selects the paper-scale defaults; Quick shrinks everything for smoke tests
// and benchmarks.
type ExpOptions struct {
	N, K      int
	Trials    int
	Budgets   []int
	Seed      int64
	Spacing   float64
	Width     float64
	RoundSize int
	GridSize  int
	Measure   string
	Quick     bool
	// Workers bounds the number of concurrent experiment cells and is
	// forwarded to per-cell trial and build parallelism. Zero selects
	// GOMAXPROCS. Experiments whose reported values are wall-clock or CPU
	// timings (fig1b, scale, the ablations) stay sequential regardless, so
	// their timing claims are not distorted by contention.
	Workers int
	// Progress, when non-nil, receives one line per completed experiment
	// cell (algorithm × budget), for long-running regenerations.
	Progress io.Writer
}

// progressMu serializes progress lines from concurrently finishing cells.
var progressMu sync.Mutex

// progress logs one completed cell.
func (o ExpOptions) progress(format string, args ...interface{}) {
	if o.Progress != nil {
		progressMu.Lock()
		defer progressMu.Unlock()
		fmt.Fprintf(o.Progress, format+"\n", args...)
	}
}

// cellJob is one experiment cell (one series × one x-value). Cells run
// concurrently, but their values land in the table in declaration order, so
// column order, row order and output bytes match a serial sweep exactly.
type cellJob struct {
	column string
	x      float64
	run    func() (float64, error)
}

// runCells evaluates the cells with up to `workers` in flight (0 =
// GOMAXPROCS) and fills tbl deterministically. The error of the
// lowest-index failing cell is returned, matching what a serial sweep would
// report first. The worker budget is consumed here, at the outermost
// parallel level: cellConfig strips inner parallelism from every cell's
// Config, so an experiment never multiplies goroutines across the cell,
// trial and build levels.
func runCells(tbl *Table, cells []cellJob, workers int) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	vals := make([]float64, len(cells))
	errs := par.For(len(cells), workers, func(_, i int) error {
		var err error
		vals[i], err = cells[i].run()
		return err
	})
	for i, err := range errs {
		if err != nil {
			return err
		}
		tbl.Set(cells[i].column, cells[i].x, vals[i])
	}
	return nil
}

// cellConfig prepares a Config for use inside one cell of a concurrent
// sweep: trials and builds run sequentially, because the worker budget is
// already spent on cell-level parallelism in runCells.
func cellConfig(cfg Config, budget int) Config {
	cfg.Budget = budget
	cfg.Workers = 1
	cfg.Build.Workers = 1
	return cfg
}

func (o ExpOptions) withDefaults() ExpOptions {
	if o.N == 0 {
		o.N = 20
	}
	if o.K == 0 {
		o.K = 5
	}
	if o.Trials == 0 {
		o.Trials = 10
	}
	if len(o.Budgets) == 0 {
		o.Budgets = []int{0, 5, 10, 20, 30, 40, 50}
	}
	if o.Spacing == 0 {
		o.Spacing = 0.5
	}
	if o.Width == 0 {
		// width/spacing = 7: each tuple's score overlaps ~6 neighbours on
		// each side, giving |Q_K| ≈ 54 relevant questions so the paper's
		// budget range (B ≤ 50) stays meaningful, at ≈6.6k orderings.
		o.Width = 3.5
	}
	if o.RoundSize == 0 {
		o.RoundSize = 5
	}
	if o.GridSize == 0 {
		o.GridSize = 512
	}
	if o.Measure == "" {
		o.Measure = "MPO"
	}
	if o.Seed == 0 {
		o.Seed = 2016
	}
	if o.Quick {
		o.N, o.K, o.Trials = 10, 3, 3
		o.Budgets = []int{0, 3, 6, 10}
	}
	return o
}

// ConfigFor builds the engine Config an experiment would use for the given
// algorithm — exposed for the CLI and benchmarks.
func ConfigFor(o ExpOptions, alg string) (Config, error) {
	return o.withDefaults().config(alg)
}

func (o ExpOptions) config(alg string) (Config, error) {
	ds, err := dataset.Generate(dataset.Spec{
		N: o.N, Spacing: o.Spacing, Width: o.Width, Seed: o.Seed,
	})
	if err != nil {
		return Config{}, err
	}
	// Validate the measure name up front, so a typo fails before any run.
	if _, err := uncertainty.New(o.Measure); err != nil {
		return Config{}, err
	}
	return Config{
		Dists:     ds,
		K:         o.K,
		Algorithm: alg,
		Measure:   o.Measure,
		RoundSize: o.RoundSize,
		Build:     tpo.BuildOptions{GridSize: o.GridSize},
		// Hypothetical-answer branches below this probability cannot move
		// R_q by more than the branch mass itself; 1e-5 bounds the cell
		// blow-up of long conditional sequences without affecting which
		// question wins.
		BranchEpsilon: 1e-5,
		Seed:          o.Seed,
		Workers:       o.Workers,
	}, nil
}

// Fig1aAlgorithms are the series of Figure 1 (the "faster algorithms": the
// A* variants are excluded there just as in the paper).
var Fig1aAlgorithms = []string{AlgT1On, AlgTBOff, AlgCOff, AlgIncr, AlgNaive, AlgRandom}

// Fig1a reproduces Figure 1(a): the distance D(ω_r, T_K) between the real
// ordering and the tree, as the question budget B varies, for T1-on, TB-off,
// C-off, incr, naive and random.
func Fig1a(o ExpOptions) (*Table, error) {
	o = o.withDefaults()
	tbl := NewTable("Fig 1(a): distance to real ordering vs budget B", "B", nil)
	var cells []cellJob
	for _, alg := range Fig1aAlgorithms {
		cfg, err := o.config(alg)
		if err != nil {
			return nil, err
		}
		for _, b := range o.Budgets {
			alg, b, c := alg, b, cellConfig(cfg, b)
			cells = append(cells, cellJob{alg, float64(b), func() (float64, error) {
				st, err := RunTrials(c, o.Trials)
				if err != nil {
					return 0, fmt.Errorf("fig1a %s B=%d: %w", alg, b, err)
				}
				o.progress("fig1a %-8s B=%-3d distance=%.4f", alg, b, st.MeanDistance)
				return st.MeanDistance, nil
			}})
		}
	}
	if err := runCells(tbl, cells, o.Workers); err != nil {
		return nil, err
	}
	tbl.Footnote = fmt.Sprintf("N=%d K=%d trials=%d width/spacing=%.2f measure=%s",
		o.N, o.K, o.Trials, o.Width/o.Spacing, o.Measure)
	return tbl, nil
}

// Fig1b reproduces Figure 1(b): mean CPU time per run (seconds) of the
// faster algorithms as B varies. The reported value is a timing, so cells
// and trials run sequentially on one core regardless of o.Workers — running
// them concurrently would measure scheduler contention, not algorithm cost.
func Fig1b(o ExpOptions) (*Table, error) {
	o = o.withDefaults()
	tbl := NewTable("Fig 1(b): CPU time (s) vs budget B", "B", nil)
	for _, alg := range []string{AlgT1On, AlgTBOff, AlgCOff, AlgIncr} {
		cfg, err := o.config(alg)
		if err != nil {
			return nil, err
		}
		cfg.Workers = 1
		cfg.Build.Workers = 1
		for _, b := range o.Budgets {
			c := cfg
			c.Budget = b
			st, err := RunTrials(c, o.Trials)
			if err != nil {
				return nil, fmt.Errorf("fig1b %s B=%d: %w", alg, b, err)
			}
			tbl.Set(alg, float64(b), st.MeanTotalTime.Seconds())
			o.progress("fig1b %-8s B=%-3d time=%v", alg, b, st.MeanTotalTime)
		}
	}
	tbl.Footnote = fmt.Sprintf("N=%d K=%d trials=%d (relative ordering is the claim, not absolute seconds)",
		o.N, o.K, o.Trials)
	return tbl, nil
}

// MeasureComparison reproduces the §IV claim that structure-aware measures
// (U_MPO, U_Hw, U_ORA) drive selection better than plain entropy U_H: final
// distance of T1-on under each measure, as B varies.
func MeasureComparison(o ExpOptions) (*Table, error) {
	o = o.withDefaults()
	tbl := NewTable("Measure comparison: T1-on distance vs budget per measure", "B", nil)
	var cells []cellJob
	for _, m := range []string{"H", "Hw", "ORA", "MPO"} {
		oo := o
		oo.Measure = m
		cfg, err := oo.config(AlgT1On)
		if err != nil {
			return nil, err
		}
		for _, b := range o.Budgets {
			m, b, c := m, b, cellConfig(cfg, b)
			cells = append(cells, cellJob{"U_" + m, float64(b), func() (float64, error) {
				st, err := RunTrials(c, o.Trials)
				if err != nil {
					return 0, fmt.Errorf("measures %s B=%d: %w", m, b, err)
				}
				return st.MeanDistance, nil
			}})
		}
	}
	if err := runCells(tbl, cells, o.Workers); err != nil {
		return nil, err
	}
	tbl.Footnote = fmt.Sprintf("N=%d K=%d trials=%d algorithm=T1-on", o.N, o.K, o.Trials)
	return tbl, nil
}

// NoisyWorkers reproduces the §III.C/§IV noisy-crowd experiment: T1-on final
// distance vs budget for worker accuracies 1.0, 0.85, 0.7 and for a 3-vote
// majority of 0.7-accuracy workers.
func NoisyWorkers(o ExpOptions) (*Table, error) {
	o = o.withDefaults()
	tbl := NewTable("Noisy workers: T1-on distance vs budget per accuracy", "B", nil)
	type series struct {
		label    string
		accuracy float64
		votes    int
	}
	ss := []series{
		{"p=1.0", 1.0, 1},
		{"p=0.85", 0.85, 1},
		{"p=0.7", 0.7, 1},
		{"p=0.7 maj3", 0.7, 3},
	}
	var cells []cellJob
	for _, s := range ss {
		cfg, err := o.config(AlgT1On)
		if err != nil {
			return nil, err
		}
		for _, b := range o.Budgets {
			s, b, c := s, b, cellConfig(cfg, b)
			cells = append(cells, cellJob{s.label, float64(b), func() (float64, error) {
				acc := 0.0
				for trial := 0; trial < o.Trials; trial++ {
					res, err := RunNoisyTrial(c, s.accuracy, s.votes, c.Seed*7919+int64(trial))
					if err != nil {
						return 0, fmt.Errorf("noisy %s B=%d: %w", s.label, b, err)
					}
					acc += res.FinalDistance
				}
				return acc / float64(o.Trials), nil
			}})
		}
	}
	if err := runCells(tbl, cells, o.Workers); err != nil {
		return nil, err
	}
	tbl.Footnote = fmt.Sprintf("N=%d K=%d trials=%d (maj3 costs 3 worker answers per question)", o.N, o.K, o.Trials)
	return tbl, nil
}

// RunNoisyTrial wires a fresh world and a noisy majority-voting platform
// into one run — exposed for the noisy-crowd benchmarks. votes must be at
// least 1; even counts are rounded up to the next odd number by the platform
// so that majority aggregation can never tie (see crowd.Platform).
func RunNoisyTrial(cfg Config, accuracy float64, votes int, seed int64) (*Result, error) {
	if votes < 1 {
		return nil, fmt.Errorf("engine: votes = %d, need at least one worker answer per question", votes)
	}
	c := cfg
	c.Seed = seed
	rng := rand.New(rand.NewSource(seed))
	truth := crowd.SampleTruth(c.Dists, rng)
	c.Truth = truth
	if accuracy >= 1 && votes <= 1 {
		return Run(c)
	}
	pf, err := crowd.NewUniformPlatform(truth, 10, accuracy, rng)
	if err != nil {
		return nil, err
	}
	pf.Votes = votes
	c.Crowd = pf
	return Run(c)
}

// NonUniform reproduces the §IV claim that the algorithms also work with
// non-uniform tuple score distributions: T1-on distance vs budget for
// uniform, Gaussian and triangular score pdfs of equal support width.
func NonUniform(o ExpOptions) (*Table, error) {
	o = o.withDefaults()
	tbl := NewTable("Non-uniform score distributions: T1-on distance vs budget", "B", nil)
	var cells []cellJob
	for _, fam := range []dataset.Family{dataset.Uniform, dataset.Gaussian, dataset.Triangular} {
		ds, err := dataset.Generate(dataset.Spec{
			N: o.N, Spacing: o.Spacing, Width: o.Width, Family: fam, Seed: o.Seed,
		})
		if err != nil {
			return nil, err
		}
		cfg := Config{
			Dists: ds, K: o.K, Algorithm: AlgT1On, Measure: o.Measure,
			Build: tpo.BuildOptions{GridSize: o.GridSize}, Seed: o.Seed,
		}
		for _, b := range o.Budgets {
			fam, b, c := fam, b, cellConfig(cfg, b)
			cells = append(cells, cellJob{string(fam), float64(b), func() (float64, error) {
				st, err := RunTrials(c, o.Trials)
				if err != nil {
					return 0, fmt.Errorf("nonuniform %s B=%d: %w", fam, b, err)
				}
				return st.MeanDistance, nil
			}})
		}
	}
	if err := runCells(tbl, cells, o.Workers); err != nil {
		return nil, err
	}
	tbl.Footnote = fmt.Sprintf("N=%d K=%d trials=%d equal support width %g", o.N, o.K, o.Trials, o.Width)
	return tbl, nil
}

// Scalability reproduces the §III.D claim that incr suits large, highly
// uncertain datasets: full-build versus incremental time and tree size as N
// grows. Build times are the reported value, so the sweep runs sequentially
// on one core regardless of o.Workers.
func Scalability(o ExpOptions) (*Table, error) {
	o = o.withDefaults()
	ns := []int{8, 12, 16, 20, 24}
	if o.Quick {
		ns = []int{6, 9, 12}
	}
	tbl := NewTable("Scalability: build cost vs N (full vs incremental)", "N", nil)
	for _, n := range ns {
		oo := o
		oo.N = n
		fullCfg, err := oo.config(AlgTBOff)
		if err != nil {
			return nil, err
		}
		fullCfg.Budget = min(oo.RoundSize*2, 10)
		fullCfg.Workers = 1
		fullCfg.Build.Workers = 1
		incCfg := fullCfg
		incCfg.Algorithm = AlgIncr

		fullStats, err := RunTrials(fullCfg, o.Trials)
		if err != nil {
			return nil, fmt.Errorf("scale full N=%d: %w", n, err)
		}
		incStats, err := RunTrials(incCfg, o.Trials)
		if err != nil {
			return nil, fmt.Errorf("scale incr N=%d: %w", n, err)
		}
		tbl.Set("full build (s)", float64(n), fullStats.MeanBuildTime.Seconds())
		tbl.Set("incr build (s)", float64(n), incStats.MeanBuildTime.Seconds())
		tbl.Set("full leaves", float64(n), fullStats.MeanFinalLeaves)
		tbl.Set("incr leaves", float64(n), incStats.MeanFinalLeaves)
		tbl.Set("Δdistance", float64(n), incStats.MeanDistance-fullStats.MeanDistance)
	}
	tbl.Footnote = fmt.Sprintf("K=%d trials=%d budget=%d roundSize=%d", o.K, o.Trials, min(o.RoundSize*2, 10), o.RoundSize)
	return tbl, nil
}

// Experiments maps experiment ids to their runners, for the CLI.
var Experiments = map[string]func(ExpOptions) (*Table, error){
	"fig1a":      Fig1a,
	"fig1b":      Fig1b,
	"measures":   MeasureComparison,
	"noisy":      NoisyWorkers,
	"nonuniform": NonUniform,
	"scale":      Scalability,
}

// ExperimentNames returns the sorted experiment ids.
func ExperimentNames() []string {
	names := make([]string, 0, len(Experiments))
	for n := range Experiments {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
