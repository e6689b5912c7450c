package selection

import (
	"math/rand"
	"testing"

	"crowdtopk/internal/numeric"
	"crowdtopk/internal/rank"
	"crowdtopk/internal/tpo"
	"crowdtopk/internal/uncertainty"
)

// splitLeafSet is the reference split the cross-checks hold the arena
// engine to: the probability-weighted outcome of answering q "yes" (I ≺ J)
// and "no". Zero-weight leaves are dropped; undetermined leaves appear in
// both branches scaled by piYes (a degenerate π skips a branch). The sets
// are unnormalized; their masses are the answer probabilities.
func splitLeafSet(ls *tpo.LeafSet, q tpo.Question, piYes float64) (yes, no *tpo.LeafSet) {
	yes, no = &tpo.LeafSet{K: ls.K}, &tpo.LeafSet{K: ls.K}
	add := func(side *tpo.LeafSet, p rank.Ordering, w float64) {
		side.Paths = append(side.Paths, p)
		side.W = append(side.W, w)
	}
	ansYes := tpo.Answer{Q: q, Yes: true}
	for i, p := range ls.Paths {
		w := ls.W[i]
		if w == 0 {
			continue
		}
		switch tpo.PathConsistency(p, ansYes) {
		case tpo.Consistent:
			add(yes, p, w)
		case tpo.Inconsistent:
			add(no, p, w)
		default:
			if piYes > 0 {
				add(yes, p, w*piYes)
			}
			if piYes < 1 {
				add(no, p, w*(1-piYes))
			}
		}
	}
	return yes, no
}

// mass returns the total weight of a (possibly unnormalized) leaf set.
func mass(ls *tpo.LeafSet) float64 { return numeric.Sum(ls.W) }

// normalized returns a copy of ls scaled to unit mass.
func normalized(ls *tpo.LeafSet) *tpo.LeafSet {
	out := &tpo.LeafSet{K: ls.K, Paths: ls.Paths, W: append([]float64(nil), ls.W...)}
	numeric.Normalize(out.W)
	return out
}

// referenceResidual is a direct recursive implementation of R_Q used only to
// cross-check the arena engine.
func referenceResidual(ls *tpo.LeafSet, qs []tpo.Question, ctx *Context, branchMass float64) float64 {
	if branchMass < ctx.branchEpsilon() || ls.Len() <= 1 {
		return 0
	}
	if len(qs) == 0 {
		return branchMass * ctx.Measure.Value(ls)
	}
	q := qs[0]
	yes, no := splitLeafSet(ls, q, ctx.pairProb(q.I, q.J))
	total := 0.0
	if m := mass(yes); m > 0 {
		total += referenceResidual(normalized(yes), qs[1:], ctx, branchMass*m)
	}
	if m := mass(no); m > 0 {
		total += referenceResidual(normalized(no), qs[1:], ctx, branchMass*m)
	}
	return total
}

func TestExpectedResidualMatchesReferenceRecursion(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	for trial := 0; trial < 15; trial++ {
		tree := buildTestTree(t, int64(300+trial), 6, 3)
		ls := tree.LeafSet()
		ctx := ctxFor(tree, uncertainty.Entropy{})
		qk := ls.RelevantQuestions()
		if len(qk) < 3 {
			continue
		}
		// Random subsequence of up to 4 questions.
		n := 1 + rng.Intn(4)
		qs := make([]tpo.Question, 0, n)
		for _, i := range rng.Perm(len(qk))[:min(n, len(qk))] {
			qs = append(qs, qk[i])
		}
		got := ExpectedResidual(ls, qs, ctx)
		want := referenceResidual(ls, qs, ctx, 1)
		if !numeric.AlmostEqual(got, want, 1e-9) {
			t.Fatalf("trial %d: partition residual %g vs reference %g for %v", trial, got, want, qs)
		}
	}
}

func TestSplitCellsEquivalentToPartition(t *testing.T) {
	tree := buildTestTree(t, 60, 6, 3)
	ls := tree.LeafSet()
	ctx := ctxFor(tree, uncertainty.Entropy{})
	qk := ls.RelevantQuestions()
	if len(qk) < 3 {
		t.Skip("not enough questions")
	}
	qs := qk[:3]
	e := NewResidualEngine(ls, ctx)
	direct := e.cellsAfter(qs)
	stepwise := e.cellsAfter(nil)
	for _, q := range qs {
		stepwise = e.refine(stepwise, q)
	}
	if len(direct) != len(stepwise) {
		t.Fatalf("cell counts differ: %d vs %d", len(direct), len(stepwise))
	}
	for i := range direct {
		if !numeric.AlmostEqual(direct[i].mass, stepwise[i].mass, 1e-12) {
			t.Fatalf("cell %d mass %g vs %g", i, direct[i].mass, stepwise[i].mass)
		}
	}
}

func TestSplitResidualMatchesExtendedPartition(t *testing.T) {
	tree := buildTestTree(t, 61, 6, 3)
	ls := tree.LeafSet()
	ctx := ctxFor(tree, uncertainty.MPO{})
	qk := ls.RelevantQuestions()
	if len(qk) < 4 {
		t.Skip("not enough questions")
	}
	prefix := qk[:2]
	e := NewResidualEngine(ls, ctx)
	cells := e.cellsAfter(prefix)
	for _, q := range qk[2:4] {
		fast := e.refinedResidual(cells, q, e.scratchFor(1)[0])
		slow := referenceResidual(ls, append(append([]tpo.Question(nil), prefix...), q), ctx, 1)
		if !numeric.AlmostEqual(fast, slow, 1e-9) {
			t.Fatalf("splitResidual %g vs full recursion %g for %v", fast, slow, q)
		}
	}
}

func TestPartitionMassConservation(t *testing.T) {
	// Total mass across active cells plus resolved/negligible mass must
	// not exceed 1, and with epsilon 0-ish it must be within float error
	// of 1 minus the resolved mass.
	tree := buildTestTree(t, 62, 6, 3)
	ls := tree.LeafSet()
	ctx := ctxFor(tree, uncertainty.Entropy{})
	ctx.BranchEpsilon = 1e-15
	qk := ls.RelevantQuestions()
	if len(qk) < 3 {
		t.Skip("not enough questions")
	}
	cells := NewResidualEngine(ls, ctx).cellsAfter(qk[:3])
	active := 0.0
	for _, c := range cells {
		active += c.mass
	}
	if active > 1+1e-9 {
		t.Fatalf("active mass %g exceeds 1", active)
	}
}

func TestPartitionDropsResolvedCells(t *testing.T) {
	tree := buildTestTree(t, 63, 5, 3)
	ls := tree.LeafSet()
	ctx := ctxFor(tree, uncertainty.Entropy{})
	qk := ls.RelevantQuestions()
	cells := NewResidualEngine(ls, ctx).cellsAfter(qk) // split on every relevant question
	for _, c := range cells {
		if len(c.idx) <= 1 {
			t.Fatalf("resolved cell retained (len %d)", len(c.idx))
		}
	}
}
