package selection

import (
	"testing"

	"crowdtopk/internal/rank"
	"crowdtopk/internal/tpo"
)

// TestTheorem31NoDeterministicAlgorithmIsOptimal demonstrates the paper's
// Theorem 3.1 on a concrete instance: whichever question a deterministic
// uncertainty-reduction algorithm asks first, there is a world (an answer
// pattern) in which a different first question would have resolved the tree
// with strictly fewer total questions. Optimality (always asking a minimal
// sequence) is therefore unattainable, which is why the paper targets
// expected uncertainty reduction instead.
func TestTheorem31NoDeterministicAlgorithmIsOptimal(t *testing.T) {
	// Three orderings over {0,1,2} with K = 2:
	//   ω1 = [0,1], ω2 = [1,0], ω3 = [2,0].
	// Question (0,1) splits {ω1} | {ω2, ω3}... verify via the machinery.
	ls := &tpo.LeafSet{
		K:     2,
		Paths: []rank.Ordering{{0, 1}, {1, 0}, {2, 0}},
		W:     []float64{1.0 / 3, 1.0 / 3, 1.0 / 3},
	}
	// minQuestionsFrom returns, for a starting question q and each of its
	// answers, the minimum number of further questions needed to reach a
	// single ordering (computed exhaustively).
	var solve func(cur *tpo.LeafSet) int
	solve = func(cur *tpo.LeafSet) int {
		if cur.Len() <= 1 {
			return 0
		}
		best := 1 << 20
		for _, q := range cur.RelevantQuestions() {
			yes, no := splitLeafSet(cur, q, 0.5)
			worst := 0
			for _, side := range []*tpo.LeafSet{yes, no} {
				if mass(side) == 0 {
					continue
				}
				if n := solve(normalized(side)); n > worst {
					worst = n
				}
			}
			if 1+worst < best {
				best = 1 + worst
			}
		}
		return best
	}

	// For every possible deterministic first choice, find the worst-case
	// number of questions; compare with the hindsight optimum per world.
	type outcome struct {
		q     tpo.Question
		worst int
	}
	var outcomes []outcome
	for _, q := range ls.RelevantQuestions() {
		yes, no := splitLeafSet(ls, q, 0.5)
		worst := 0
		for _, side := range []*tpo.LeafSet{yes, no} {
			if mass(side) == 0 {
				continue
			}
			if n := solve(normalized(side)); n > worst {
				worst = n
			}
		}
		outcomes = append(outcomes, outcome{q, 1 + worst})
	}
	if len(outcomes) < 2 {
		t.Fatalf("instance too small to demonstrate the theorem: %v", outcomes)
	}
	// The hindsight optimum for each single world: some ordering can be
	// isolated in 1 question (e.g. answering (0,1) with "yes" leaves ω1
	// alone when ω2, ω3 are pruned)…
	bestWorst := outcomes[0].worst
	for _, o := range outcomes {
		if o.worst < bestWorst {
			bestWorst = o.worst
		}
	}
	// …but NO first question achieves worst-case 1: every deterministic
	// choice has a world requiring at least 2 questions, while for every
	// world there exists a (different) 1-question resolution of at least
	// one answer branch. Hence no deterministic algorithm always asks a
	// minimal sequence.
	if bestWorst < 2 {
		t.Fatalf("expected every first question to have a ≥2-question worst case, got %v", outcomes)
	}
	oneShotExists := false
	for _, q := range ls.RelevantQuestions() {
		yes, no := splitLeafSet(ls, q, 0.5)
		if (yes.Len() == 1 && mass(yes) > 0) || (no.Len() == 1 && mass(no) > 0) {
			oneShotExists = true
		}
	}
	if !oneShotExists {
		t.Fatal("expected some answer branch to resolve in one question")
	}
}
