package selection

import (
	"math"
	"math/rand"
	"testing"

	"crowdtopk/internal/rank"
	"crowdtopk/internal/tpo"
	"crowdtopk/internal/uncertainty"
)

// The flat residual engine must reproduce the reference semantics of
// partition_test.go's recursion exactly (within tieEpsilon): these tests
// drive both over seeded random trees for every measure and every strategy.

// refExpectedResidual is R_qs by the reference recursion.
func refExpectedResidual(ls *tpo.LeafSet, qs []tpo.Question, ctx *Context) float64 {
	return referenceResidual(ls, qs, ctx, 1)
}

func allMeasures() []uncertainty.Measure {
	return []uncertainty.Measure{
		uncertainty.Entropy{},
		uncertainty.NewWeightedEntropy(0),
		uncertainty.MPO{Penalty: rank.DefaultPenalty},
		uncertainty.ORA{Penalty: rank.DefaultPenalty, Footrule: true},
	}
}

func TestFlatEngineMatchesReferenceResiduals(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		tree := buildTestTree(t, 400+seed, 6, 3)
		ls := tree.LeafSet()
		rng := rand.New(rand.NewSource(seed))
		for _, m := range allMeasures() {
			ctx := ctxFor(tree, m)
			e := NewResidualEngine(ls, ctx)
			qs, rs := e.QuestionResiduals()
			want := ls.RelevantQuestions()
			if len(qs) != len(want) {
				t.Fatalf("%s: engine Q_K has %d questions, reference %d", m.Name(), len(qs), len(want))
			}
			for i := range qs {
				if qs[i] != want[i] {
					t.Fatalf("%s: question %d = %v, reference %v", m.Name(), i, qs[i], want[i])
				}
				ref := refExpectedResidual(ls, qs[i:i+1], ctx)
				if math.Abs(rs[i]-ref) > tieEpsilon {
					t.Fatalf("%s: R_%v = %.17g, reference %.17g (Δ=%g)",
						m.Name(), qs[i], rs[i], ref, rs[i]-ref)
				}
			}
			// Random multi-question subsets exercise partition/splitCells.
			for trial := 0; trial < 5 && len(qs) >= 2; trial++ {
				n := 2 + rng.Intn(3)
				sub := make([]tpo.Question, 0, n)
				for _, i := range rng.Perm(len(qs))[:min(n, len(qs))] {
					sub = append(sub, qs[i])
				}
				got := e.ExpectedResidual(sub)
				ref := refExpectedResidual(ls, sub, ctx)
				if math.Abs(got-ref) > tieEpsilon {
					t.Fatalf("%s: R_%v = %.17g, reference %.17g", m.Name(), sub, got, ref)
				}
			}
		}
	}
}

// TestParallelResidualsMatchSequential pins that the parallel sweep returns
// bit-identical residuals for any worker count (run under -race in CI).
func TestParallelResidualsMatchSequential(t *testing.T) {
	for _, m := range allMeasures() {
		tree := buildTestTree(t, 77, 7, 3)
		ls := tree.LeafSet()
		seqCtx := ctxFor(tree, m)
		qsSeq, rsSeq := QuestionResiduals(ls, seqCtx)
		parCtx := ctxFor(tree, m)
		parCtx.Workers = 8
		qsPar, rsPar := QuestionResiduals(ls, parCtx)
		if len(qsSeq) != len(qsPar) {
			t.Fatalf("%s: question counts differ: %d vs %d", m.Name(), len(qsSeq), len(qsPar))
		}
		for i := range qsSeq {
			if qsSeq[i] != qsPar[i] || rsSeq[i] != rsPar[i] {
				t.Fatalf("%s: %v/%g sequential vs %v/%g parallel at %d",
					m.Name(), qsSeq[i], rsSeq[i], qsPar[i], rsPar[i], i)
			}
		}
	}
}

// referenceTBOff / referenceCOff / referenceT1On are the strategies written
// directly over the reference recursion.
func referenceTBOff(ls *tpo.LeafSet, budget int, ctx *Context) []tpo.Question {
	qs := ls.RelevantQuestions()
	rs := make([]float64, len(qs))
	for i, q := range qs {
		rs[i] = refExpectedResidual(ls, []tpo.Question{q}, ctx)
	}
	idx := make([]int, len(qs))
	for i := range idx {
		idx[i] = i
	}
	sortByResidual(idx, qs, rs)
	if budget < len(idx) {
		idx = idx[:budget]
	}
	out := make([]tpo.Question, len(idx))
	for i, j := range idx {
		out[i] = qs[j]
	}
	return out
}

func referenceCOff(ls *tpo.LeafSet, budget int, ctx *Context) []tpo.Question {
	qk := ls.RelevantQuestions()
	var chosen []tpo.Question
	chosenSet := make(map[tpo.Question]bool)
	// A positive residual means some answer branch is still unresolved.
	for len(chosen) < budget && len(chosen) < len(qk) && refExpectedResidual(ls, chosen, ctx) > 0 {
		bestQ, bestR := tpo.Question{I: -1}, 0.0
		for _, q := range qk {
			if chosenSet[q] {
				continue
			}
			r := refExpectedResidual(ls, append(append([]tpo.Question(nil), chosen...), q), ctx)
			if bestQ.I == -1 || r < bestR-tieEpsilon {
				bestQ, bestR = q, r
			}
		}
		chosen = append(chosen, bestQ)
		chosenSet[bestQ] = true
	}
	return chosen
}

func referenceT1On(ls *tpo.LeafSet, ctx *Context) (tpo.Question, bool) {
	qs := ls.RelevantQuestions()
	if len(qs) == 0 {
		return tpo.Question{}, false
	}
	rs := make([]float64, len(qs))
	for i, q := range qs {
		rs[i] = refExpectedResidual(ls, []tpo.Question{q}, ctx)
	}
	q, _ := bestQuestion(qs, rs)
	return q, true
}

func sameBatch(a, b []tpo.Question) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestStrategiesMatchReferenceBatches drives every residual-driven strategy
// against its reference implementation on seeded random trees: the flat
// engine must select byte-identical batches.
func TestStrategiesMatchReferenceBatches(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		tree := buildTestTree(t, 500+seed, 6, 3)
		ls := tree.LeafSet()
		for _, m := range []uncertainty.Measure{uncertainty.Entropy{}, uncertainty.MPO{Penalty: rank.DefaultPenalty}} {
			ctx := ctxFor(tree, m)
			pctx := ctxFor(tree, m)
			pctx.Workers = 4 // batches must not depend on sweep parallelism

			tb, err := (TBOff{}).SelectBatch(ls, 4, pctx)
			if err != nil {
				t.Fatal(err)
			}
			if want := referenceTBOff(ls, 4, ctx); !sameBatch(tb, want) {
				t.Fatalf("seed %d %s: TB-off %v, reference %v", seed, m.Name(), tb, want)
			}

			co, err := (COff{}).SelectBatch(ls, 4, pctx)
			if err != nil {
				t.Fatal(err)
			}
			if want := referenceCOff(ls, 4, ctx); !sameBatch(co, want) {
				t.Fatalf("seed %d %s: C-off %v, reference %v", seed, m.Name(), co, want)
			}

			q, ok, err := (T1On{}).NextQuestion(ls, 1, pctx)
			if err != nil {
				t.Fatal(err)
			}
			refQ, refOK := referenceT1On(ls, ctx)
			if ok != refOK || q != refQ {
				t.Fatalf("seed %d %s: T1-on %v/%v, reference %v/%v", seed, m.Name(), q, ok, refQ, refOK)
			}
		}
	}
}

// TestAStarAndExhaustiveAgreeOnEngine re-pins Theorem 3.2 through the new
// engine: A*-off and exhaustive search find batches of equal expected
// residual entropy, and A*-on returns the head of the A*-off batch.
func TestAStarAndExhaustiveAgreeOnEngine(t *testing.T) {
	tree := buildTestTree(t, 31, 5, 3)
	ls := tree.LeafSet()
	ctx := ctxFor(tree, uncertainty.Entropy{})
	for _, budget := range []int{1, 2, 3} {
		a, err := (AStarOff{}).SelectBatch(ls, budget, ctx)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := (Exhaustive{}).SelectBatch(ls, budget, ctx)
		if err != nil {
			t.Fatal(err)
		}
		ra, re := BatchValue(ls, a, ctx), BatchValue(ls, ex, ctx)
		if math.Abs(ra-re) > 1e-9 {
			t.Fatalf("B=%d: A* residual %g vs exhaustive %g", budget, ra, re)
		}
		q, ok, err := (AStarOn{}).NextQuestion(ls, budget, ctx)
		if err != nil || !ok {
			t.Fatalf("A*-on: %v %v", ok, err)
		}
		if q != a[0] {
			t.Fatalf("A*-on head %v != A*-off head %v", q, a[0])
		}
	}
}

// TestFillDistRowMatchesTopKDist pins the specialized Kendall row builder
// against the generic distancer: for the default (dyadic) penalty every
// distance is a sum of exactly representable terms, so the floats must be
// identical.
func TestFillDistRowMatchesTopKDist(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		tree := buildTestTree(t, 600+seed, 7, 3)
		ls := tree.LeafSet()
		ctx := ctxFor(tree, uncertainty.MPO{})
		e := NewResidualEngine(ls, ctx)
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 4; trial++ {
			ref := int32(rng.Intn(e.arena.n))
			row := e.arena.DistRow(ref, rank.DefaultPenalty)
			d := rank.NewTopKDist(e.arena.paths[ref], rank.DefaultPenalty)
			for i, p := range e.arena.paths {
				if want := d.Normalized(p); row[i] != want {
					t.Fatalf("seed %d ref %d leaf %d: fast row %.17g, TopKDist %.17g",
						seed, ref, i, row[i], want)
				}
			}
		}
	}
}

// TestArenaPrefixGroups pins the group invariant the U_Hw evaluation relies
// on: equal group id at level l iff equal path prefix of length l.
func TestArenaPrefixGroups(t *testing.T) {
	tree := buildTestTree(t, 9, 6, 3)
	ls := tree.LeafSet()
	a := NewArena(ls)
	a.groupsOnce.Do(a.buildGroups)
	for l := 1; l <= a.k; l++ {
		seen := map[int32]string{}
		distinct := map[string]bool{}
		for i := 0; i < a.n; i++ {
			prefix := ls.Paths[i][:l].String()
			distinct[prefix] = true
			g := a.groups[(l-1)*a.n+i]
			if prev, ok := seen[g]; ok {
				if prev != prefix {
					t.Fatalf("level %d: group %d holds prefixes %s and %s", l, g, prev, prefix)
				}
			} else {
				seen[g] = prefix
			}
		}
		if len(seen) != int(a.groupN[l-1]) || len(distinct) != len(seen) {
			t.Fatalf("level %d: %d group ids, groupN=%d, %d distinct prefixes",
				l, len(seen), a.groupN[l-1], len(distinct))
		}
	}
}

// TestDensePiMatrixMatchesTree pins that the dense matrix the engine builds
// returns exactly the tree's π for both orientations.
func TestDensePiMatrixMatchesTree(t *testing.T) {
	tree := buildTestTree(t, 13, 5, 3)
	ls := tree.LeafSet()
	ctx := ctxFor(tree, uncertainty.Entropy{})
	NewResidualEngine(ls, ctx) // builds ctx.pim
	if ctx.pim == nil {
		t.Fatal("engine did not build the dense π matrix")
	}
	tuples := ls.Tuples()
	for _, i := range tuples {
		for _, j := range tuples {
			got, ok := ctx.pim.lookup(i, j)
			if !ok {
				t.Fatalf("pair (%d,%d) missing from dense matrix", i, j)
			}
			if want := tree.ProbGreater(i, j); got != want {
				t.Fatalf("π(%d,%d) = %.17g dense, %.17g tree", i, j, got, want)
			}
		}
	}
}
