// Benchmarks regenerating every table and figure of the paper's evaluation
// (§IV). Each benchmark family corresponds to one experiment of DESIGN.md's
// index (E1–E7); the emitted custom metrics are the figures' y-values:
//
//	distance    — D(ω_r, T_K), Fig. 1(a) and the §IV claims
//	ns/op       — CPU time per complete run, Fig. 1(b)
//	questions   — crowd questions actually asked
//	leaves      — orderings remaining in the tree
//
// The workloads are scaled to finish in seconds rather than the paper's
// hours; EXPERIMENTS.md records the full-scale runs produced with
// `crowdtopk run`.
package crowdtopk_test

import (
	"fmt"
	"testing"

	"crowdtopk/internal/dataset"
	"crowdtopk/internal/engine"
	"crowdtopk/internal/selection"
	"crowdtopk/internal/tpo"
	"crowdtopk/internal/uncertainty"
)

// benchOptions is the shared benchmark workload: small enough for -bench=.
// to complete in minutes, uncertain enough that every algorithm has work to
// do (|Q_K| ≈ 30, ≈1.5k orderings).
func benchOptions() engine.ExpOptions {
	return engine.ExpOptions{N: 16, K: 4, Width: 2.6, Spacing: 0.5, Trials: 1, Seed: 2016}
}

func benchConfig(b *testing.B, alg string, budget int) engine.Config {
	b.Helper()
	cfg, err := engine.ConfigFor(benchOptions(), alg)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Budget = budget
	return cfg
}

// runAndReport runs the configuration b.N times, reporting the paper's
// metrics.
func runAndReport(b *testing.B, cfg engine.Config) {
	b.Helper()
	var dist, questions, leaves float64
	for i := 0; i < b.N; i++ {
		c := cfg
		c.Seed = cfg.Seed + int64(i) // fresh world per iteration
		res, err := engine.Run(c)
		if err != nil {
			b.Fatal(err)
		}
		dist += res.FinalDistance
		questions += float64(res.Asked)
		leaves += float64(res.FinalLeaves)
	}
	n := float64(b.N)
	b.ReportMetric(dist/n, "distance")
	b.ReportMetric(questions/n, "questions")
	b.ReportMetric(leaves/n, "leaves")
}

// BenchmarkFig1a regenerates Figure 1(a): the distance to the real ordering
// per algorithm and budget. Read the `distance` metric column; it must
// decrease with B and order T1-on ≤ C-off ≤ TB-off ≤ incr < naive < random
// at matching budgets.
func BenchmarkFig1a(b *testing.B) {
	for _, alg := range engine.Fig1aAlgorithms {
		for _, budget := range []int{0, 5, 10, 20} {
			b.Run(fmt.Sprintf("%s/B=%d", alg, budget), func(b *testing.B) {
				runAndReport(b, benchConfig(b, alg, budget))
			})
		}
	}
}

// BenchmarkFig1b regenerates Figure 1(b): CPU time per run as the budget
// grows. The ns/op column is the figure's y-axis; the claim is the relative
// ordering incr ≪ TB-off < T1-on ≤ C-off.
func BenchmarkFig1b(b *testing.B) {
	for _, alg := range []string{engine.AlgT1On, engine.AlgTBOff, engine.AlgCOff, engine.AlgIncr} {
		for _, budget := range []int{5, 10, 20} {
			b.Run(fmt.Sprintf("%s/B=%d", alg, budget), func(b *testing.B) {
				runAndReport(b, benchConfig(b, alg, budget))
			})
		}
	}
}

// BenchmarkMeasures regenerates the §IV measure comparison (E3): T1-on
// driven by each uncertainty measure. Structure-aware measures (Hw, ORA,
// MPO) should reach distances at or below plain entropy H.
func BenchmarkMeasures(b *testing.B) {
	for _, m := range []string{"H", "Hw", "ORA", "MPO"} {
		b.Run(m, func(b *testing.B) {
			cfg := benchConfig(b, engine.AlgT1On, 10)
			cfg.Measure = m
			runAndReport(b, cfg)
		})
	}
}

// BenchmarkNoisyWorkers regenerates the noisy-crowd experiment (E4): lower
// accuracy slows uncertainty reduction; majority voting recovers it.
func BenchmarkNoisyWorkers(b *testing.B) {
	type setting struct {
		name     string
		accuracy float64
		votes    int
	}
	for _, s := range []setting{
		{"p=1.0", 1, 1}, {"p=0.85", 0.85, 1}, {"p=0.7", 0.7, 1}, {"p=0.7-maj3", 0.7, 3},
	} {
		b.Run(s.name, func(b *testing.B) {
			cfg := benchConfig(b, engine.AlgT1On, 10)
			var dist float64
			for i := 0; i < b.N; i++ {
				res, err := engine.RunNoisyTrial(cfg, s.accuracy, s.votes, cfg.Seed+int64(i))
				if err != nil {
					b.Fatal(err)
				}
				dist += res.FinalDistance
			}
			b.ReportMetric(dist/float64(b.N), "distance")
		})
	}
}

// BenchmarkNonUniform regenerates the §IV distribution-shape experiment
// (E5): the algorithms work unchanged with Gaussian and triangular scores.
func BenchmarkNonUniform(b *testing.B) {
	for _, fam := range []dataset.Family{dataset.Uniform, dataset.Gaussian, dataset.Triangular} {
		b.Run(string(fam), func(b *testing.B) {
			o := benchOptions()
			ds, err := dataset.Generate(dataset.Spec{
				N: o.N, Spacing: o.Spacing, Width: o.Width, Family: fam, Seed: o.Seed,
			})
			if err != nil {
				b.Fatal(err)
			}
			cfg := benchConfig(b, engine.AlgT1On, 10)
			cfg.Dists = ds
			runAndReport(b, cfg)
		})
	}
}

// BenchmarkTPOBuild regenerates the scalability experiment (E6): full TPO
// construction cost versus N and K. The catalog and durable rows build the
// trees the serving benchmark's workloads create per session (default
// 1,024-point grid, one worker), so the create path's tree build has a
// microbenchmark of its own.
func BenchmarkTPOBuild(b *testing.B) {
	run := func(b *testing.B, spec dataset.Spec, k int, opt tpo.BuildOptions) {
		ds, err := dataset.Generate(spec)
		if err != nil {
			b.Fatal(err)
		}
		var leaves float64
		for i := 0; i < b.N; i++ {
			tree, err := tpo.Build(ds, k, opt)
			if err != nil {
				b.Fatal(err)
			}
			leaves += float64(tree.NumLeaves())
		}
		b.ReportMetric(leaves/float64(b.N), "leaves")
	}
	for _, n := range []int{10, 15, 20} {
		for _, k := range []int{3, 4, 5} {
			b.Run(fmt.Sprintf("N=%d/K=%d", n, k), func(b *testing.B) {
				run(b, dataset.Spec{N: n, Width: 2.4, Seed: 1}, k, tpo.BuildOptions{GridSize: 512})
			})
		}
	}
	b.Run("catalog/N=24/K=5/workers=1", func(b *testing.B) {
		run(b, dataset.Spec{N: 24, Width: 3, Spacing: 0.5, Jitter: 0.001, Seed: 1}, 5, tpo.BuildOptions{Workers: 1})
	})
	b.Run("durable/N=12/K=3/workers=1", func(b *testing.B) {
		run(b, dataset.Spec{N: 12, Width: 2, Spacing: 0.5, Seed: 1}, 3, tpo.BuildOptions{Workers: 1})
	})
}

// BenchmarkIncrVsFull regenerates the incr half of E6: processing cost of
// incremental versus full materialization at equal budget.
func BenchmarkIncrVsFull(b *testing.B) {
	for _, alg := range []string{engine.AlgTBOff, engine.AlgIncr} {
		b.Run(alg, func(b *testing.B) {
			o := benchOptions()
			o.N, o.K = 18, 5
			cfg, err := engine.ConfigFor(o, alg)
			if err != nil {
				b.Fatal(err)
			}
			cfg.Budget = 10
			runAndReport(b, cfg)
		})
	}
}

// BenchmarkAStarOptimality regenerates E7: A*-off against exhaustive subset
// search on a small instance (both must find batches of equal expected
// residual uncertainty; A* explores far fewer states).
func BenchmarkAStarOptimality(b *testing.B) {
	o := engine.ExpOptions{N: 8, K: 3, Width: 2.0, Trials: 1, Seed: 5}
	for _, alg := range []string{engine.AlgAStarOff, engine.AlgExhaustive} {
		for _, budget := range []int{2, 3} {
			b.Run(fmt.Sprintf("%s/B=%d", alg, budget), func(b *testing.B) {
				cfg, err := engine.ConfigFor(o, alg)
				if err != nil {
					b.Fatal(err)
				}
				cfg.Measure = "H"
				cfg.Budget = budget
				runAndReport(b, cfg)
			})
		}
	}
}

// BenchmarkSelectionPrimitives measures the question-scoring hot path that
// dominates Fig. 1(b): one full R_q sweep over Q_K (a fresh flat engine per
// iteration, as every selection step pays), sequentially and fanned across
// GOMAXPROCS workers, plus the C-off conditional batch as the deepest
// consumer of incremental cell splitting.
func BenchmarkSelectionPrimitives(b *testing.B) {
	o := benchOptions()
	cfg, err := engine.ConfigFor(o, engine.AlgT1On)
	if err != nil {
		b.Fatal(err)
	}
	tree, err := tpo.Build(cfg.Dists, cfg.K, cfg.Build)
	if err != nil {
		b.Fatal(err)
	}
	ls := tree.LeafSet()
	for _, m := range []string{"H", "Hw", "MPO"} {
		for _, workers := range []int{1, -1} {
			name := "QuestionResiduals/" + m
			if workers != 1 {
				name = "QuestionResidualsParallel/" + m
			}
			b.Run(name, func(b *testing.B) {
				meas, err := uncertainty.New(m)
				if err != nil {
					b.Fatal(err)
				}
				ctx := &selection.Context{Tree: tree, Measure: meas, Workers: workers}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					qs, _ := selection.QuestionResiduals(ls, ctx)
					if len(qs) == 0 {
						b.Fatal("no questions")
					}
				}
			})
		}
	}
	b.Run("ConditionalBatch/MPO", func(b *testing.B) {
		meas, err := uncertainty.New("MPO")
		if err != nil {
			b.Fatal(err)
		}
		ctx := &selection.Context{Tree: tree, Measure: meas}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			batch, err := (selection.COff{}).SelectBatch(ls, 5, ctx)
			if err != nil || len(batch) == 0 {
				b.Fatalf("C-off batch: %v (%d questions)", err, len(batch))
			}
		}
	})
}
