// BenchmarkSessionCreate and BenchmarkSessionRestore measure what a create
// and a hydrate cost the serving path, and BenchmarkSessionAnswer and
// BenchmarkIncremental what an accepted answer costs it.
// BenchmarkSessionCreate times session.New on the serving benchmark's
// workload shapes: π-cache fill, tree build and first sweep.
// BenchmarkSessionRestore times session.Restore of a mid-query checkpoint at
// those shapes: decoding, π-cache fill and the tree rebuilt from leaves.
// BenchmarkSessionAnswer times Session.SubmitAnswer on sessions of those
// shapes, answered by a simulated crowd: the tree prune, the upkeep of the
// live selection engine and the replan. BenchmarkIncremental isolates
// the selection step on fixed min-kill answer sequences: the live engine,
// reconciled with each pruned leaf set inside the sweep, against a full
// rebuild of the flat engine per answer.
package crowdtopk_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"crowdtopk/internal/crowd"
	"crowdtopk/internal/dataset"
	"crowdtopk/internal/dist"
	"crowdtopk/internal/selection"
	"crowdtopk/internal/session"
	"crowdtopk/internal/tpo"
	"crowdtopk/internal/uncertainty"
)

// incrAnswerSeq precomputes a fixed trusted-answer sequence for the workload:
// at each step the relevant question (and direction) killing the fewest
// leaves is chosen, so the leaf set stays near its initial size for the
// whole sequence. No shipped strategy asks such questions — online ones
// split the probability mass — so this is the sequence where reconciling
// the engine costs most relative to the sweep. Tree construction is
// deterministic, so the sequence replays identically on a fresh build.
func incrAnswerSeq(b *testing.B, tree *tpo.Tree, steps int) []tpo.Answer {
	b.Helper()
	seq := make([]tpo.Answer, 0, steps)
	for len(seq) < steps {
		ls := tree.LeafSet()
		qs := ls.RelevantQuestions()
		if len(qs) == 0 {
			break
		}
		best, bestKill := tpo.Answer{}, -1
		for _, q := range qs {
			cons, incons := 0, 0
			ansYes := tpo.Answer{Q: q, Yes: true}
			for _, p := range ls.Paths {
				switch tpo.PathConsistency(p, ansYes) {
				case tpo.Consistent:
					cons++
				case tpo.Inconsistent:
					incons++
				}
			}
			// Answering Yes kills the inconsistent leaves and vice versa.
			if bestKill < 0 || incons < bestKill {
				best, bestKill = ansYes, incons
			}
			if cons < bestKill {
				best, bestKill = tpo.Answer{Q: q, Yes: false}, cons
			}
		}
		if err := tree.Prune(best); err != nil {
			b.Fatal(err)
		}
		seq = append(seq, best)
	}
	return seq
}

func BenchmarkIncremental(b *testing.B) {
	const k, steps = 5, 8
	for _, n := range []int{12, 16, 20} {
		ds, err := dataset.Generate(dataset.Spec{N: n, Width: 3.2, Seed: 2016})
		if err != nil {
			b.Fatal(err)
		}
		scratch, err := tpo.Build(ds, k, tpo.BuildOptions{})
		if err != nil {
			b.Fatal(err)
		}
		leaves := scratch.NumLeaves()
		seq := incrAnswerSeq(b, scratch, steps)
		if len(seq) < steps {
			b.Fatalf("N=%d: workload resolved after %d answers", n, len(seq))
		}
		for _, mName := range []string{"H", "MPO"} {
			meas, err := uncertainty.New(mName)
			if err != nil {
				b.Fatal(err)
			}
			for _, fam := range []string{"update", "rebuild"} {
				fam := fam
				b.Run(fmt.Sprintf("%s/%s/N=%d", fam, mName, n), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						// Per-iteration setup is untimed: the steady state
						// under measurement starts with a session already
						// attached, mid-query.
						b.StopTimer()
						tree, err := tpo.Build(ds, k, tpo.BuildOptions{})
						if err != nil {
							b.Fatal(err)
						}
						ctx := &selection.Context{Tree: tree, Measure: meas}
						if fam == "update" {
							ctx.Live = selection.NewLiveEngine()
							if qs, _ := selection.QuestionResiduals(tree.LeafSet(), ctx); len(qs) == 0 {
								b.Fatal("no questions before the sequence")
							}
						}
						for _, a := range seq {
							// The tree transition and its snapshot are paid
							// identically by both families; only the
							// selection step — reconcile the held engine and
							// sweep (update) versus build-and-sweep
							// (rebuild) — is under the timer.
							if err := tree.Prune(a); err != nil {
								b.Fatal(err)
							}
							ls := tree.LeafSet()
							b.StartTimer()
							qs, _ := selection.QuestionResiduals(ls, ctx)
							b.StopTimer()
							if len(qs) == 0 {
								b.Fatal("no questions left mid-sequence")
							}
						}
					}
					// ns/op covers the whole sequence; expose the per-answer
					// denominator and workload scale alongside it.
					b.ReportMetric(float64(len(seq)), "answers/op")
					b.ReportMetric(float64(leaves), "leaves")
				})
			}
		}
	}
}

// servingShapes are the serving benchmark's two dataset shapes: catalog
// (every session on one uniform N=24, K=5 dataset, about 1.8k orderings)
// and durable (a fresh uniform N=12, K=3 dataset per session, seeded by
// its index from 1).
var servingShapes = []struct {
	name   string
	k      int
	spec   dataset.Spec
	shared bool
}{
	{"catalog", 5, dataset.Spec{N: 24, Width: 3, Spacing: 0.5, Jitter: 0.001, Seed: 1}, true},
	{"durable", 3, dataset.Spec{N: 12, Width: 2, Spacing: 0.5, Seed: 1}, false},
}

// BenchmarkSessionCreate times session.New on the serving benchmark's two
// dataset shapes under its settings: T1-on, MPO, budget 16. Every iteration
// parses the dataset's wire specs afresh with dataset.FromSpecs, as the
// server does on each create, so nothing keyed on distribution identity
// carries over between sessions. ns/op is one create: the π-cache fill, the
// tree build and the first selection sweep. orderings is the tree's size.
func BenchmarkSessionCreate(b *testing.B) {
	for _, sh := range servingShapes {
		b.Run(sh.name, func(b *testing.B) {
			specs := make([][]dataset.DistSpec, b.N)
			for i := range specs {
				spec := sh.spec
				if !sh.shared {
					spec.Seed = int64(i) + 1
				}
				ds, err := dataset.Generate(spec)
				if err != nil {
					b.Fatal(err)
				}
				if specs[i], err = dataset.SpecsOf(ds); err != nil {
					b.Fatal(err)
				}
			}
			var orderings float64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ds, err := dataset.FromSpecs(specs[i])
				if err != nil {
					b.Fatal(err)
				}
				s, err := session.New(session.Config{Dists: ds, K: sh.k, Budget: 16,
					Algorithm: session.AlgT1On, Measure: "MPO", Seed: int64(i)})
				if err != nil {
					b.Fatal(err)
				}
				orderings += float64(s.Orderings())
			}
			b.ReportMetric(orderings/float64(b.N), "orderings")
		})
	}
}

// BenchmarkSessionRestore times session.Restore, the hydrate a served
// session pays when it comes back from a checkpoint, on the serving
// benchmark's two dataset shapes under its settings: T1-on, MPO, budget 16,
// checkpointed mid-query after three answers from a simulated crowd. ns/op
// is one restore: decoding the envelope and the dataset, the π-cache fill
// and the tree rebuilt from the checkpoint's leaf set.
func BenchmarkSessionRestore(b *testing.B) {
	for _, sh := range servingShapes {
		b.Run(sh.name, func(b *testing.B) {
			cps := make([][]byte, b.N)
			for i := range cps {
				if sh.shared && i > 0 {
					cps[i] = cps[0]
					continue
				}
				spec := sh.spec
				if !sh.shared {
					spec.Seed = int64(i) + 1
				}
				ds, err := dataset.Generate(spec)
				if err != nil {
					b.Fatal(err)
				}
				cps[i] = midQueryCheckpoint(b, ds, sh.k, int64(i))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := session.Restore(bytes.NewReader(cps[i]), nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// midQueryCheckpoint creates a session, answers up to three of its
// questions correctly and returns its checkpoint.
func midQueryCheckpoint(b *testing.B, ds []dist.Distribution, k int, seed int64) []byte {
	truth := crowd.SampleTruth(ds, rand.New(rand.NewSource(seed)))
	s, err := session.New(session.Config{Dists: ds, K: k, Budget: 16,
		Algorithm: session.AlgT1On, Measure: "MPO", Seed: seed})
	if err != nil {
		b.Fatal(err)
	}
	for answered := 0; answered < 3; answered++ {
		qs, _, err := s.NextQuestions(1)
		if err != nil {
			b.Fatal(err)
		}
		if len(qs) == 0 {
			break
		}
		if err := s.SubmitAnswer(truth.Correct(qs[0])); err != nil {
			b.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkSessionAnswer times Session.SubmitAnswer per accepted answer on
// the serving benchmark's two dataset shapes. Sessions run its settings — MPO,
// budget 16, a crowd that answers from a sampled ground truth and errs with
// probability 0.1 — under T1-on with trusted and with noisy answers, the
// offline C-off batch and incr. Creating a session is untimed; ns/op is the
// answer time of one session. answers/session and distance (to the real
// top-K) show that the sessions asked and concluded the same.
func BenchmarkSessionAnswer(b *testing.B) {
	runs := []struct {
		alg string
		rel float64
	}{
		{session.AlgT1On, 1},
		{session.AlgT1On, 0.8},
		{session.AlgCOff, 1},
		{session.AlgIncr, 1},
	}
	for _, sh := range servingShapes {
		shared, err := dataset.Generate(sh.spec)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range runs {
			b.Run(fmt.Sprintf("%s/%s/rel=%g", sh.name, r.alg, r.rel), func(b *testing.B) {
				b.ReportAllocs()
				var answers, distance float64
				b.StopTimer()
				for i := 0; i < b.N; i++ {
					ds := shared
					if !sh.shared {
						spec := sh.spec
						spec.Seed = int64(i) + 1
						var err error
						if ds, err = dataset.Generate(spec); err != nil {
							b.Fatal(err)
						}
					}
					n, d := answerSession(b, ds, sh.k, r.alg, r.rel, int64(i))
					answers += float64(n)
					distance += d
				}
				b.ReportMetric(b.Elapsed().Seconds()*1e6/answers, "us/answer")
				b.ReportMetric(answers/float64(b.N), "answers/session")
				b.ReportMetric(distance/float64(b.N), "distance")
			})
		}
	}
}

// answerSession creates a session untimed and answers every question it
// issues, with only SubmitAnswer under the timer. It returns the accepted
// answers and the final distance to the real top-K.
func answerSession(b *testing.B, ds []dist.Distribution, k int, alg string, rel float64, seed int64) (int, float64) {
	rng := rand.New(rand.NewSource(seed))
	truth := crowd.SampleTruth(ds, rng)
	s, err := session.New(session.Config{Dists: ds, K: k, Budget: 16, Algorithm: alg,
		Measure: "MPO", Reliability: rel, Seed: seed})
	if err != nil {
		b.Fatal(err)
	}
	for {
		qs, _, err := s.NextQuestions(0)
		if err != nil {
			b.Fatal(err)
		}
		if len(qs) == 0 {
			break
		}
		for _, q := range qs {
			a := truth.Correct(q)
			if rng.Float64() >= 0.9 {
				a.Yes = !a.Yes
			}
			b.StartTimer()
			err := s.SubmitAnswer(a)
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	return s.Status().Asked, truth.Distance(s.LeafSet(), 0)
}
