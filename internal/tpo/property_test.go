package tpo

import (
	"errors"
	"math/rand"
	"testing"

	"crowdtopk/internal/dist"
	"crowdtopk/internal/numeric"
)

// randomTree builds a tree over a random overlapping workload.
func randomTree(t *testing.T, rng *rand.Rand, n, k int) *Tree {
	t.Helper()
	ds := make([]dist.Distribution, n)
	for i := range ds {
		c := float64(i)*0.4 + rng.Float64()*0.3
		u, err := dist.NewUniformAround(c, 1+rng.Float64()*1.5)
		if err != nil {
			t.Fatal(err)
		}
		ds[i] = u
	}
	tree, err := Build(ds, k, BuildOptions{GridSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestTreeInvariantsUnderRandomAnswerSequences applies random answers —
// some pruning, some reweighting, possibly contradictory — and checks that
// the tree never violates its structural invariants.
func TestTreeInvariantsUnderRandomAnswerSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 25; trial++ {
		tree := randomTree(t, rng, 5+rng.Intn(4), 2+rng.Intn(3))
		for step := 0; step < 12; step++ {
			ls := tree.LeafSet()
			qs := ls.RelevantQuestions()
			if len(qs) == 0 {
				break
			}
			q := qs[rng.Intn(len(qs))]
			ans := Answer{Q: q, Yes: rng.Intn(2) == 0}
			var err error
			if rng.Intn(2) == 0 {
				err = tree.Prune(ans)
			} else {
				err = tree.Reweight(ans, 0.6+0.4*rng.Float64())
			}
			if err != nil && !errors.Is(err, ErrContradiction) {
				t.Fatalf("trial %d step %d: unexpected error %v", trial, step, err)
			}
			if err := tree.Validate(); err != nil {
				t.Fatalf("trial %d step %d: invariants violated: %v", trial, step, err)
			}
			if mass := tree.LeafMass(); !numeric.AlmostEqual(mass, 1, 1e-6) {
				t.Fatalf("trial %d step %d: mass %g", trial, step, mass)
			}
		}
	}
}

// TestPruneConsistentWithConditional verifies the probabilistic semantics of
// pruning: the posterior of a surviving leaf equals its prior divided by the
// total surviving prior (Bayes with a 0/1 likelihood).
func TestPruneConsistentWithConditional(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 20; trial++ {
		tree := randomTree(t, rng, 6, 3)
		before := tree.LeafSet()
		qs := before.RelevantQuestions()
		if len(qs) == 0 {
			continue
		}
		q := qs[rng.Intn(len(qs))]
		ans := Answer{Q: q, Yes: rng.Intn(2) == 0}

		surviving := map[string]float64{}
		total := 0.0
		for i, p := range before.Paths {
			if PathConsistency(p, ans) != Inconsistent {
				surviving[p.String()] = before.W[i]
				total += before.W[i]
			}
		}
		if total == 0 {
			continue
		}
		if err := tree.Prune(ans); err != nil {
			t.Fatal(err)
		}
		after := tree.LeafSet()
		for i, p := range after.Paths {
			prior, ok := surviving[p.String()]
			if !ok {
				t.Fatalf("leaf %v appeared from nowhere", p)
			}
			if want := prior / total; !numeric.AlmostEqual(after.W[i], want, 1e-9) {
				t.Fatalf("posterior of %v = %g, want %g", p, after.W[i], want)
			}
		}
	}
}

// TestReweightSequenceOrderIndependence: Bayesian updates commute, so
// applying two answers in either order must give the same posterior.
func TestReweightSequenceOrderIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	for trial := 0; trial < 15; trial++ {
		tree := randomTree(t, rng, 6, 3)
		qs := tree.LeafSet().RelevantQuestions()
		if len(qs) < 2 {
			continue
		}
		a1 := Answer{Q: qs[0], Yes: rng.Intn(2) == 0}
		a2 := Answer{Q: qs[1], Yes: rng.Intn(2) == 0}

		t12 := tree.Clone()
		if err := t12.Reweight(a1, 0.8); err != nil {
			t.Fatal(err)
		}
		if err := t12.Reweight(a2, 0.7); err != nil {
			t.Fatal(err)
		}
		t21 := tree.Clone()
		if err := t21.Reweight(a2, 0.7); err != nil {
			t.Fatal(err)
		}
		if err := t21.Reweight(a1, 0.8); err != nil {
			t.Fatal(err)
		}
		l12, l21 := t12.LeafSet(), t21.LeafSet()
		if l12.Len() != l21.Len() {
			t.Fatalf("orders disagree on leaf count: %d vs %d", l12.Len(), l21.Len())
		}
		w21 := map[string]float64{}
		for i, p := range l21.Paths {
			w21[p.String()] = l21.W[i]
		}
		for i, p := range l12.Paths {
			if !numeric.AlmostEqual(l12.W[i], w21[p.String()], 1e-9) {
				t.Fatalf("posterior of %v differs by order: %g vs %g", p, l12.W[i], w21[p.String()])
			}
		}
	}
}

// TestCloneEqualsOriginalEverywhere does a deep structural comparison.
func TestCloneEqualsOriginalEverywhere(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	tree := randomTree(t, rng, 7, 3)
	cp := tree.Clone()
	var walk func(a, b *Node)
	walk = func(a, b *Node) {
		if a.Tuple != b.Tuple || a.Prob != b.Prob || a.depth != b.depth || len(a.Children) != len(b.Children) {
			t.Fatalf("clone mismatch at tuple %d", a.Tuple)
		}
		for i := range a.Children {
			walk(a.Children[i], b.Children[i])
		}
	}
	walk(tree.Root, cp.Root)
	if tree.K != cp.K || tree.Depth() != cp.Depth() {
		t.Fatal("clone header mismatch")
	}
}

// TestLeafSetTupleMarginalsSumToK: Σ_t Pr(t ∈ top-K) = K exactly.
func TestLeafSetTupleMarginalsSumToK(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	for trial := 0; trial < 10; trial++ {
		tree := randomTree(t, rng, 7, 1+rng.Intn(4))
		ls := tree.LeafSet()
		sum := 0.0
		for _, p := range ls.TopKProbability() {
			sum += p
		}
		if !numeric.AlmostEqual(sum, float64(ls.K), 1e-6) {
			t.Fatalf("marginals sum to %g, want K=%d", sum, ls.K)
		}
	}
}

// TestRankProbabilitiesRowsAndColumns: for every rank r the probabilities
// over tuples sum to 1, and for every tuple the rank probabilities sum to
// its top-K marginal.
func TestRankProbabilitiesRowsAndColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	tree := randomTree(t, rng, 6, 3)
	ls := tree.LeafSet()
	marginals := ls.TopKProbability()
	rankSums := make([]float64, ls.K)
	for _, id := range ls.Tuples() {
		rp := ls.RankProbability(id)
		rowSum := 0.0
		for r, v := range rp {
			rankSums[r] += v
			rowSum += v
		}
		if !numeric.AlmostEqual(rowSum, marginals[id], 1e-9) {
			t.Fatalf("tuple %d: Σ_r Pr(rank r) = %g, marginal %g", id, rowSum, marginals[id])
		}
	}
	for r, s := range rankSums {
		if !numeric.AlmostEqual(s, 1, 1e-6) {
			t.Fatalf("rank %d probabilities sum to %g", r, s)
		}
	}
}
