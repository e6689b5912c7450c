package engine

import (
	"fmt"
	"math"
	"time"

	"crowdtopk/internal/dataset"
	"crowdtopk/internal/tpo"
)

// AblationGrid quantifies the numerical design choice DESIGN.md calls out:
// how the shared integration grid size trades construction time against
// leaf-probability accuracy. The error column is the maximum absolute leaf
// probability deviation from a 16k-point reference build. Build time is the
// reported value, so builds run sequentially regardless of o.Workers.
func AblationGrid(o ExpOptions) (*Table, error) {
	o = o.withDefaults()
	ds, err := dataset.Generate(dataset.Spec{
		N: o.N, Spacing: o.Spacing, Width: o.Width, Seed: o.Seed,
	})
	if err != nil {
		return nil, err
	}
	const refGrid = 16384
	ref, err := tpo.Build(ds, o.K, tpo.BuildOptions{GridSize: refGrid, Workers: 1})
	if err != nil {
		return nil, err
	}
	refProbs := leafProbIndex(ref)

	tbl := NewTable("Ablation: integration grid size vs accuracy and cost", "grid", nil)
	sizes := []int{128, 256, 512, 1024, 2048, 4096}
	if o.Quick {
		sizes = []int{128, 512, 2048}
	}
	for _, g := range sizes {
		start := time.Now()
		tree, err := tpo.Build(ds, o.K, tpo.BuildOptions{GridSize: g, Workers: 1})
		el := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("ablation grid=%d: %w", g, err)
		}
		maxErr := 0.0
		missing := 0
		probs := leafProbIndex(tree)
		for key, p := range refProbs {
			q, ok := probs[key]
			if !ok {
				missing++
				q = 0
			}
			if d := math.Abs(p - q); d > maxErr {
				maxErr = d
			}
		}
		tbl.Set("max leaf prob error", float64(g), maxErr)
		tbl.Set("build time (ms)", float64(g), float64(el.Milliseconds()))
		tbl.Set("leaves", float64(g), float64(tree.NumLeaves()))
		tbl.Set("missing orderings", float64(g), float64(missing))
	}
	tbl.Footnote = fmt.Sprintf("N=%d K=%d reference grid %d", o.N, o.K, refGrid)
	return tbl, nil
}

func leafProbIndex(t *tpo.Tree) map[string]float64 {
	ls := t.LeafSet()
	out := make(map[string]float64, ls.Len())
	for i, p := range ls.Paths {
		out[fmt.Sprint([]int(p))] = ls.W[i]
	}
	return out
}

// AblationEpsilon quantifies the branch-epsilon design choice in the
// expected-residual machinery: selection quality (final distance of C-off)
// versus selection cost, as negligible hypothetical-answer branches are
// pruned more aggressively. Select time is the reported value, so trials
// and builds run sequentially on one core regardless of o.Workers.
func AblationEpsilon(o ExpOptions) (*Table, error) {
	o = o.withDefaults()
	tbl := NewTable("Ablation: branch epsilon vs C-off quality and cost", "-log10(eps)", nil)
	budget := 10
	if len(o.Budgets) > 0 {
		budget = o.Budgets[len(o.Budgets)-1]
	}
	for _, eps := range []float64{1e-2, 1e-3, 1e-5, 1e-9} {
		cfg, err := o.config(AlgCOff)
		if err != nil {
			return nil, err
		}
		cfg.Workers = 1
		cfg.Build.Workers = 1
		cfg.Budget = budget
		cfg.BranchEpsilon = eps
		st, err := RunTrials(cfg, o.Trials)
		if err != nil {
			return nil, fmt.Errorf("ablation eps=%g: %w", eps, err)
		}
		x := -math.Log10(eps)
		tbl.Set("distance", x, st.MeanDistance)
		tbl.Set("select time (ms)", x, float64(st.MeanSelectTime.Milliseconds()))
	}
	tbl.Footnote = fmt.Sprintf("N=%d K=%d trials=%d algorithm=C-off budget=%d", o.N, o.K, o.Trials, budget)
	return tbl, nil
}

// AblationRoundSize sweeps the incr algorithm's questions-per-round n
// (§III.D says n is between 1 and B): small rounds approach online quality,
// large rounds approach offline batch cost. Total time is the reported
// value, so trials and builds run sequentially regardless of o.Workers.
func AblationRoundSize(o ExpOptions) (*Table, error) {
	o = o.withDefaults()
	budget := 20
	if o.Quick {
		budget = 8
	}
	tbl := NewTable("Ablation: incr round size n vs quality and cost", "n", nil)
	for _, n := range []int{1, 2, 5, 10, budget} {
		cfg, err := o.config(AlgIncr)
		if err != nil {
			return nil, err
		}
		cfg.Workers = 1
		cfg.Build.Workers = 1
		cfg.Budget = budget
		cfg.RoundSize = n
		st, err := RunTrials(cfg, o.Trials)
		if err != nil {
			return nil, fmt.Errorf("ablation round=%d: %w", n, err)
		}
		tbl.Set("distance", float64(n), st.MeanDistance)
		tbl.Set("total time (ms)", float64(n), float64(st.MeanTotalTime.Milliseconds()))
		tbl.Set("questions", float64(n), st.MeanAsked)
	}
	tbl.Footnote = fmt.Sprintf("N=%d K=%d trials=%d budget=%d", o.N, o.K, o.Trials, budget)
	return tbl, nil
}

// Trajectory reports the per-question convergence D(ω_r, T_K) of the online
// algorithm — the continuous view of Fig. 1(a)'s sampled budgets.
func Trajectory(o ExpOptions) (*Table, error) {
	o = o.withDefaults()
	budget := 0
	for _, b := range o.Budgets {
		if b > budget {
			budget = b
		}
	}
	tbl := NewTable("Convergence: distance after each answered question (T1-on)", "question", nil)
	cfg, err := o.config(AlgT1On)
	if err != nil {
		return nil, err
	}
	cfg.Budget = budget
	cfg.RecordTrajectory = true
	// Average trajectories across trials (ragged tails padded with their
	// final value — early termination means the distance stays put).
	sums := make([]float64, budget+1)
	for trial := 0; trial < o.Trials; trial++ {
		c := cfg
		c.Seed = cfg.Seed*999983 + int64(trial)
		res, err := Run(c)
		if err != nil {
			return nil, fmt.Errorf("trajectory trial %d: %w", trial, err)
		}
		last := 0.0
		for i := 0; i <= budget; i++ {
			if i < len(res.Trajectory) {
				last = res.Trajectory[i]
			}
			sums[i] += last
		}
	}
	for i := 0; i <= budget; i++ {
		tbl.Set("mean distance", float64(i), sums[i]/float64(o.Trials))
	}
	tbl.Footnote = fmt.Sprintf("N=%d K=%d trials=%d measure=%s", o.N, o.K, o.Trials, o.Measure)
	return tbl, nil
}

func init() {
	Experiments["ablation-grid"] = AblationGrid
	Experiments["ablation-eps"] = AblationEpsilon
	Experiments["ablation-round"] = AblationRoundSize
	Experiments["trajectory"] = Trajectory
}
