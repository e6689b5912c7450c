package tpo

import (
	"errors"
	"math"
	"testing"

	"crowdtopk/internal/dist"
	"crowdtopk/internal/numeric"
	"crowdtopk/internal/rank"
)

func TestPathConsistency(t *testing.T) {
	q := NewQuestion(1, 2)
	yes := Answer{Q: q, Yes: true} // 1 ≺ 2
	cases := []struct {
		name string
		path rank.Ordering
		want Consistency
	}{
		{"both present agreeing", rank.Ordering{1, 3, 2}, Consistent},
		{"both present disagreeing", rank.Ordering{2, 1, 3}, Inconsistent},
		{"only higher present", rank.Ordering{3, 1}, Consistent},
		{"only lower present", rank.Ordering{3, 2}, Inconsistent},
		{"neither present", rank.Ordering{3, 4}, Undetermined},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := PathConsistency(c.path, yes); got != c.want {
				t.Fatalf("consistency = %v, want %v", got, c.want)
			}
		})
	}
	no := Answer{Q: q, Yes: false} // 2 ≺ 1
	if got := PathConsistency(rank.Ordering{2, 1}, no); got != Consistent {
		t.Fatalf("no-answer consistency = %v", got)
	}
}

func TestPruneRemovesDisagreeingLeaves(t *testing.T) {
	tree, err := Build(iidUniforms(t, 3), 3, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ans := Answer{Q: NewQuestion(0, 1), Yes: true} // 0 ≺ 1
	if err := tree.Prune(ans); err != nil {
		t.Fatal(err)
	}
	ls := tree.LeafSet()
	if ls.Len() != 3 {
		t.Fatalf("leaves after prune = %d, want 3 of 6", ls.Len())
	}
	for i, p := range ls.Paths {
		if PathConsistency(p, ans) == Inconsistent {
			t.Fatalf("inconsistent leaf %v survived with w=%g", p, ls.W[i])
		}
	}
	if !numeric.AlmostEqual(numeric.Sum(ls.W), 1, 1e-9) {
		t.Fatalf("weights sum to %g after prune", numeric.Sum(ls.W))
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	// Conditional probabilities: iid symmetric, so the three survivors are
	// equally likely.
	for i := range ls.W {
		if !numeric.AlmostEqual(ls.W[i], 1.0/3, 1e-3) {
			t.Fatalf("Pr(%v | 0≺1) = %g, want 1/3", ls.Paths[i], ls.W[i])
		}
	}
}

func TestPruneToSingleOrdering(t *testing.T) {
	tree, err := Build(iidUniforms(t, 3), 3, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []Answer{
		{Q: NewQuestion(0, 1), Yes: true},
		{Q: NewQuestion(1, 2), Yes: true},
	} {
		if err := tree.Prune(a); err != nil {
			t.Fatal(err)
		}
	}
	ls := tree.LeafSet()
	if ls.Len() != 1 || !ls.Paths[0].Equal(rank.Ordering{0, 1, 2}) {
		t.Fatalf("expected unique ordering [0 1 2], got %v", ls.Paths)
	}
}

func TestPruneContradictionRollsBack(t *testing.T) {
	tree, err := Build(iidUniforms(t, 2), 2, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a := Answer{Q: NewQuestion(0, 1), Yes: true}
	if err := tree.Prune(a); err != nil {
		t.Fatal(err)
	}
	before := tree.LeafSet()
	// The opposite answer now contradicts the only remaining ordering.
	err = tree.Prune(Answer{Q: NewQuestion(0, 1), Yes: false})
	if !errors.Is(err, ErrContradiction) {
		t.Fatalf("err = %v, want ErrContradiction", err)
	}
	after := tree.LeafSet()
	if after.Len() != before.Len() {
		t.Fatal("tree mutated despite contradiction")
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}

	// A contradiction across several leaves, on weights a noisy answer has
	// skewed first, must leave every node's weight bit for bit as it was.
	tree, err = Build(iidUniforms(t, 3), 2, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Reweight(Answer{Q: NewQuestion(0, 2), Yes: true}, 0.7); err != nil {
		t.Fatal(err)
	}
	if err := tree.Prune(a); err != nil {
		t.Fatal(err)
	}
	if n := tree.NumLeaves(); n < 2 {
		t.Fatalf("%d leaves left, want several", n)
	}
	bits := weightBits(tree)
	err = tree.Prune(Answer{Q: NewQuestion(0, 1), Yes: false})
	if !errors.Is(err, ErrContradiction) {
		t.Fatalf("err = %v, want ErrContradiction", err)
	}
	got := weightBits(tree)
	if len(got) != len(bits) {
		t.Fatalf("tree has %d nodes after the contradiction, want %d", len(got), len(bits))
	}
	for i := range bits {
		if got[i] != bits[i] {
			t.Fatalf("node %d weight %g, want %g", i, math.Float64frombits(got[i]), math.Float64frombits(bits[i]))
		}
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

// weightBits lists every node's probability bits in depth-first order.
func weightBits(t *Tree) []uint64 {
	var out []uint64
	var rec func(n *Node)
	rec = func(n *Node) {
		out = append(out, math.Float64bits(n.Prob))
		for _, c := range n.Children {
			rec(c)
		}
	}
	rec(t.Root)
	return out
}

func TestReweightAccuracyOneEqualsPrune(t *testing.T) {
	a, err := Build(iidUniforms(t, 3), 3, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b := a.Clone()
	ans := Answer{Q: NewQuestion(1, 2), Yes: false}
	if err := a.Prune(ans); err != nil {
		t.Fatal(err)
	}
	if err := b.Reweight(ans, 1); err != nil {
		t.Fatal(err)
	}
	la, lb := a.LeafSet(), b.LeafSet()
	if la.Len() != lb.Len() {
		t.Fatalf("prune %d leaves vs reweight(1) %d", la.Len(), lb.Len())
	}
	for i := range la.Paths {
		if !la.Paths[i].Equal(lb.Paths[i]) || !numeric.AlmostEqual(la.W[i], lb.W[i], 1e-12) {
			t.Fatalf("leaf %d differs: %v %g vs %v %g", i, la.Paths[i], la.W[i], lb.Paths[i], lb.W[i])
		}
	}
}

func TestReweightHalfAccuracyIsNoOp(t *testing.T) {
	tree, err := Build(iidUniforms(t, 3), 2, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	before := tree.LeafSet()
	if err := tree.Reweight(Answer{Q: NewQuestion(0, 2), Yes: true}, 0.5); err != nil {
		t.Fatal(err)
	}
	after := tree.LeafSet()
	if before.Len() != after.Len() {
		t.Fatalf("accuracy-0.5 answer changed leaf count %d → %d", before.Len(), after.Len())
	}
	for i := range before.W {
		if !numeric.AlmostEqual(before.W[i], after.W[i], 1e-9) {
			t.Fatalf("weight %d changed: %g → %g", i, before.W[i], after.W[i])
		}
	}
}

func TestReweightShiftsMassTowardConsistent(t *testing.T) {
	tree, err := Build(iidUniforms(t, 3), 3, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ans := Answer{Q: NewQuestion(0, 1), Yes: true}
	if err := tree.Reweight(ans, 0.8); err != nil {
		t.Fatal(err)
	}
	ls := tree.LeafSet()
	if ls.Len() != 6 {
		t.Fatalf("reweight must keep all leaves, got %d", ls.Len())
	}
	var consistentW, inconsistentW float64
	for i, p := range ls.Paths {
		switch PathConsistency(p, ans) {
		case Consistent:
			consistentW += ls.W[i]
		case Inconsistent:
			inconsistentW += ls.W[i]
		}
	}
	// Posterior odds 0.8 : 0.2 over a symmetric prior.
	if !numeric.AlmostEqual(consistentW, 0.8, 1e-3) || !numeric.AlmostEqual(inconsistentW, 0.2, 1e-3) {
		t.Fatalf("posterior masses %g / %g, want 0.8 / 0.2", consistentW, inconsistentW)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReweightValidation(t *testing.T) {
	tree, err := Build(iidUniforms(t, 2), 2, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, acc := range []float64{0, -0.5, 1.5} {
		if err := tree.Reweight(Answer{Q: NewQuestion(0, 1), Yes: true}, acc); !errors.Is(err, ErrInvalidInput) {
			t.Fatalf("accuracy %g err = %v, want ErrInvalidInput", acc, err)
		}
	}
}

func TestRelevantQuestionsIIDAllPairs(t *testing.T) {
	tree, err := Build(iidUniforms(t, 4), 4, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	qs := tree.LeafSet().RelevantQuestions()
	if len(qs) != 6 {
		t.Fatalf("relevant questions = %d, want C(4,2) = 6", len(qs))
	}
}

func TestRelevantQuestionsShrinkAfterPrune(t *testing.T) {
	tree, err := Build(iidUniforms(t, 4), 4, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	before := len(tree.LeafSet().RelevantQuestions())
	if err := tree.Prune(Answer{Q: NewQuestion(0, 1), Yes: true}); err != nil {
		t.Fatal(err)
	}
	after := tree.LeafSet().RelevantQuestions()
	if len(after) >= before {
		t.Fatalf("relevant questions %d → %d, expected shrink", before, len(after))
	}
	for _, q := range after {
		if q == NewQuestion(0, 1) {
			t.Fatal("answered question still reported relevant")
		}
	}
}

func TestRelevantQuestionsEmptyForCertainTree(t *testing.T) {
	ds := []dist.Distribution{mustUniform(t, 0, 1), mustUniform(t, 2, 3)}
	tree, err := Build(ds, 2, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if qs := tree.LeafSet().RelevantQuestions(); len(qs) != 0 {
		t.Fatalf("certain ordering has relevant questions %v", qs)
	}
}

func TestLeafSetCloneAndNormalized(t *testing.T) {
	tree, err := Build(iidUniforms(t, 3), 2, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ls := tree.LeafSet()
	cp := ls.Clone()
	cp.W[0] = 99
	cp.Paths[0][0] = 77
	if ls.W[0] == 99 || ls.Paths[0][0] == 77 {
		t.Fatal("Clone shares storage")
	}
	// Snapshots are normalized even after pruning leaves unnormalized
	// posteriors in the tree.
	if err := tree.Prune(Answer{Q: NewQuestion(0, 1), Yes: true}); err != nil {
		t.Fatal(err)
	}
	if m := numeric.Sum(tree.LeafSet().W); !numeric.AlmostEqual(m, 1, 1e-12) {
		t.Fatalf("snapshot mass = %g", m)
	}
}

func TestMostProbableAndEntropy(t *testing.T) {
	ls := &LeafSet{
		K:     2,
		Paths: []rank.Ordering{{0, 1}, {1, 0}},
		W:     []float64{0.75, 0.25},
	}
	if got := ls.MostProbable(); got != 0 {
		t.Fatalf("MostProbable = %d", got)
	}
	wantH := -(0.75*log2(0.75) + 0.25*log2(0.25))
	if got := ls.Entropy(); !numeric.AlmostEqual(got, wantH, 1e-12) {
		t.Fatalf("Entropy = %g, want %g", got, wantH)
	}
}

func log2(x float64) float64 { return numeric.Log2Safe(x) }
