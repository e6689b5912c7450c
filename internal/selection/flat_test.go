package selection

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"crowdtopk/internal/dist"
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

// refFillDistRow is the pairwise Kendall row builder the incremental
// fillDistRow replaced, kept as its oracle: O(K²) per leaf, every leaf on
// its own.
func refFillDistRow(a *Arena, row []float64, ref int32, penalty float64) {
	k := a.k
	posR := make([]int32, len(a.tuples))
	pr := make([]int32, k)
	for i := range posR {
		posR[i] = -1
	}
	for d := 0; d < k; d++ {
		posR[a.dense[int(ref)*k+d]] = int32(d)
	}
	max := rank.KendallTopKMax(k, k, penalty)
	if max == 0 {
		for i := range row {
			row[i] = 0
		}
		return
	}
	for leaf := 0; leaf < a.n; leaf++ {
		base := leaf * k
		s := 0
		for d := 0; d < k; d++ {
			p := posR[a.dense[base+d]]
			pr[d] = p
			if p >= 0 {
				s++
			}
		}
		var m1, across, b int32
		for d2 := 1; d2 < k; d2++ {
			p2 := pr[d2]
			for d1 := 0; d1 < d2; d1++ {
				p1 := pr[d1]
				switch {
				case p1 >= 0 && p2 >= 0:
					if p1 > p2 {
						m1++
					}
				case p2 >= 0: // p1 < 0: probe-only before shared
					across++
				}
			}
		}
		for d := 0; d < k; d++ {
			p := pr[d]
			if p < 0 {
				continue
			}
			before := int32(0)
			for d2 := 0; d2 < k; d2++ {
				if q := pr[d2]; q >= 0 && q < p {
					before++
				}
			}
			b += p - before
		}
		ks := k - s
		dist := float64(m1+across+b) + float64(ks*ks) + penalty*float64(ks*(ks-1))
		row[leaf] = dist / max
	}
}

// oraclePenalties are the penalties the row oracle runs at; 0 selects
// rank.DefaultPenalty. The default comes last, so the arena's row cache
// ends at the penalty a U_MPO sweep uses.
var oraclePenalties = []float64{0.3, 1, 0.5, 0}

// oracleRefs returns every leaf of a small arena as a reference, and 12
// sampled ones (the first and last among them) of a large one.
func oracleRefs(a *Arena, rng *rand.Rand) []int32 {
	if a.n <= 64 {
		refs := make([]int32, a.n)
		for i := range refs {
			refs[i] = int32(i)
		}
		return refs
	}
	refs := []int32{0, int32(a.n - 1)}
	for len(refs) < 12 {
		refs = append(refs, int32(rng.Intn(a.n)))
	}
	return refs
}

// checkDistRows requires the arena's distance rows for refs to equal
// refFillDistRow's bit for bit at every oracle penalty, both freshly filled
// and as DistRow serves them.
func checkDistRows(t *testing.T, name string, a *Arena, refs []int32) {
	t.Helper()
	want, got := make([]float64, a.n), make([]float64, a.n)
	for _, pen := range oraclePenalties {
		eff := pen
		if eff == 0 {
			eff = rank.DefaultPenalty
		}
		for _, ref := range refs {
			refFillDistRow(a, want, ref, eff)
			a.rowMu.Lock()
			a.fillDistRow(got, ref, eff)
			a.rowMu.Unlock()
			served := a.DistRow(ref, pen)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) ||
					math.Float64bits(served[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s: penalty %g ref %d leaf %d: filled %.17g, served %.17g, pairwise %.17g",
						name, pen, ref, i, got[i], served[i], want[i])
				}
			}
		}
	}
}

// oracleScores draws n scores of the given family around centers 0.5 apart
// (jittered by up to ±0.25) with supports width wide.
func oracleScores(t *testing.T, family string, n int, width float64, seed int64) []dist.Distribution {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ds := make([]dist.Distribution, n)
	for i := range ds {
		c := float64(i)*0.5 + (rng.Float64()*2-1)*0.25
		lo, hi := c-width/2, c+width/2
		var d dist.Distribution
		var err error
		switch family {
		case "uniform":
			d, err = dist.NewUniform(lo, hi)
		case "gaussian":
			d, err = dist.NewGaussian(c, width/6)
		case "triangular":
			d, err = dist.NewTriangular(lo, c+(rng.Float64()*2-1)*width/4, hi)
		case "piecewise":
			w := []float64{rng.Float64(), 0.2 + rng.Float64(), 0.2 + rng.Float64(), rng.Float64()}
			d, err = dist.NewPiecewiseUniform([]float64{lo, lo + width/4, c, hi - width/4, hi}, w)
		default:
			t.Fatalf("unknown family %q", family)
		}
		if err != nil {
			t.Fatal(err)
		}
		ds[i] = d
	}
	return ds
}

// TestFillDistRowMatchesPairwise pins the incremental row kernel against
// the pairwise one on tree snapshots of every score family, N 6–24 and
// K 1–6, where neighbouring leaves share long prefixes.
func TestFillDistRowMatchesPairwise(t *testing.T) {
	shapes := []struct {
		n     int
		width float64
	}{{6, 1.6}, {10, 2}, {16, 2}, {24, 2.4}}
	rng := rand.New(rand.NewSource(7))
	for _, family := range []string{"uniform", "gaussian", "triangular", "piecewise"} {
		for _, sh := range shapes {
			for k := 1; k <= 6; k++ {
				ds := oracleScores(t, family, sh.n, sh.width, int64(sh.n*10+k))
				tree, err := tpo.Build(ds, k, tpo.BuildOptions{GridSize: 256})
				if err != nil {
					t.Fatal(err)
				}
				a := NewArena(tree.LeafSet())
				name := fmt.Sprintf("%s/N=%d/K=%d/leaves=%d", family, sh.n, k, a.n)
				checkDistRows(t, name, a, oracleRefs(a, rng))
			}
		}
	}
}

// TestFillDistRowOnFilteredArenas runs the row oracle on arenas the live
// engine's filter produced: dense ids compacted in place over the held
// arena's tuple universe, rows migrated from the held arena, and rows
// filled afresh after the filter.
func TestFillDistRowOnFilteredArenas(t *testing.T) {
	before := LiveEngineStats().Compactions
	migrated := 0
	for seed := int64(0); seed < 4; seed++ {
		h := newLiveHarness(t, 1500+seed, 10, 4, uncertainty.MPO{})
		_, live := h.ctxs()
		rng := rand.New(rand.NewSource(seed))
		for round := 0; round < 10; round++ {
			a := h.le.engineFor(h.tree.LeafSet(), live).arena
			name := fmt.Sprintf("seed %d round %d", seed, round)
			// The rows the reconcile carried over, before anything refills.
			want := make([]float64, a.n)
			for ref, row := range a.rows {
				refFillDistRow(a, want, ref, a.rowPenalty)
				for i := range want {
					if math.Float64bits(row[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s: migrated row of ref %d, leaf %d: %.17g, pairwise %.17g",
							name, ref, i, row[i], want[i])
					}
				}
				migrated++
			}
			checkDistRows(t, name, a, oracleRefs(a, rng))
			ans, ok := pickRelevant(h.tree.LeafSet(), rng)
			if !ok {
				break
			}
			h.applyTrusted(t, ans)
		}
	}
	if LiveEngineStats().Compactions == before || migrated == 0 {
		t.Fatalf("no filtered arena with migrated rows (%d rows)", migrated)
	}
}

// handBuiltLeafSet returns n distinct random paths of k tuples drawn from
// ids [0, k+extra), in an order where no two neighbours share a first
// entry, so every leaf starts the row kernel from depth 0.
func handBuiltLeafSet(rng *rand.Rand, n, k, extra int) *tpo.LeafSet {
	ls := &tpo.LeafSet{K: k}
	seen := map[string]bool{}
	for len(ls.Paths) < n {
		p := rank.Ordering(rng.Perm(k + extra)[:k])
		key := p.String()
		if seen[key] || (len(ls.Paths) > 0 && ls.Paths[len(ls.Paths)-1][0] == p[0]) {
			continue
		}
		seen[key] = true
		ls.Paths = append(ls.Paths, p)
		ls.W = append(ls.W, 1/float64(n))
	}
	return ls
}

// TestFillDistRowShuffledLeaves runs the row oracle where the kernel can
// resume nothing: hand-built sets whose neighbours share no prefix, and
// tree snapshots in shuffled order.
func TestFillDistRowShuffledLeaves(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for k := 1; k <= 6; k++ {
		n := 40
		if k == 1 {
			n = 8 // of the 9 possible paths
		}
		a := NewArena(handBuiltLeafSet(rng, n, k, 8))
		checkDistRows(t, fmt.Sprintf("hand-built K=%d", k), a, oracleRefs(a, rng))

		ls := buildTestTree(t, int64(700+k), 9, k).LeafSet()
		perm := rng.Perm(ls.Len())
		sh := &tpo.LeafSet{K: k}
		for _, i := range perm {
			sh.Paths = append(sh.Paths, ls.Paths[i])
			sh.W = append(sh.W, ls.W[i])
		}
		a = NewArena(sh)
		checkDistRows(t, fmt.Sprintf("shuffled tree K=%d (%d leaves)", k, a.n), a, oracleRefs(a, rng))
	}
}

// TestFillDistRowLongPaths runs the row oracle past 64 reference positions,
// where the seen set spans several words: random paths, and paths that
// share long prefixes with a base ordering and permute its tail, so shared
// tuples flip order across word boundaries.
func TestFillDistRowLongPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	for _, k := range []int{70, 130} {
		ls := handBuiltLeafSet(rng, 24, k, 20)
		base := ls.Paths[0]
		for _, cut := range []int{0, 1, 40, 63, 64, 65, k - 2} {
			p := base.Clone()
			tail := p[cut:]
			rng.Shuffle(len(tail), func(i, j int) { tail[i], tail[j] = tail[j], tail[i] })
			if p.Equal(base) {
				continue
			}
			ls.Paths = append(ls.Paths, p)
			ls.W = append(ls.W, 0.01)
		}
		a := NewArena(ls)
		checkDistRows(t, fmt.Sprintf("K=%d", k), a, oracleRefs(a, rng))
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
