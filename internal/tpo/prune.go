package tpo

import (
	"fmt"

	"crowdtopk/internal/rank"
)

// Consistency describes how a leaf path relates to an answer.
type Consistency int

// Consistency values.
const (
	// Consistent: the path implies the answered order.
	Consistent Consistency = iota
	// Inconsistent: the path implies the opposite order.
	Inconsistent
	// Undetermined: the path contains neither tuple, so the answer carries
	// no information about it.
	Undetermined
)

// PathConsistency classifies the prefix ordering against an answer. A top-K
// prefix implies x ≺ y when x appears before y, or when x appears and y does
// not (y is then ranked below the K-th position, hence below x).
func PathConsistency(path rank.Ordering, a Answer) Consistency {
	switch path.Before(a.Higher(), a.Lower()) {
	case 1:
		return Consistent
	case -1:
		return Inconsistent
	default:
		return Undetermined
	}
}

// Prune removes every leaf inconsistent with the answer and renormalizes.
// It is the trusted-worker (accuracy 1) update of §III. ErrContradiction is
// returned when the answer conflicts with every remaining ordering; the tree
// is left unchanged in that case.
func (t *Tree) Prune(a Answer) error {
	return t.applyAnswer(a, 1)
}

// Reweight applies the noisy-worker Bayesian update of §III.C: each leaf's
// probability is multiplied by the likelihood of the observed answer given
// the ordering — accuracy for consistent leaves, 1−accuracy for inconsistent
// ones, and the model marginal for undetermined ones — and the tree is
// renormalized. accuracy must lie in (0, 1]; Reweight(a, 1) equals Prune(a).
func (t *Tree) Reweight(a Answer, accuracy float64) error {
	if accuracy <= 0 || accuracy > 1 {
		return fmt.Errorf("%w: worker accuracy %g outside (0, 1]", ErrInvalidInput, accuracy)
	}
	return t.applyAnswer(a, accuracy)
}

func (t *Tree) applyAnswer(a Answer, accuracy float64) error {
	// renormalize fails exactly when no leaf keeps a positive weight, so a
	// contradiction is found before anything is mutated: the first surviving
	// leaf ends the search.
	if !t.anyLeaf(func(n *Node, path rank.Ordering) bool {
		return n.Prob*likelihood(path, a, accuracy) > 0
	}) {
		return fmt.Errorf("%s: %w", a, ErrContradiction)
	}
	t.walkLeaves(func(n *Node, path rank.Ordering) {
		n.Prob *= likelihood(path, a, accuracy)
	})
	return t.renormalize() // cannot fail: a leaf keeps a positive weight
}

// likelihood is the factor an answer scales a leaf's weight by: accuracy for
// a consistent path, 1−accuracy for an inconsistent one. For an undetermined
// path the observation likelihood is the same for both hypothetical orders
// of the pair below rank K; it cancels in the renormalization, so the factor
// is 1 and the weight is unchanged.
func likelihood(path rank.Ordering, a Answer, accuracy float64) float64 {
	switch PathConsistency(path, a) {
	case Consistent:
		return accuracy
	case Inconsistent:
		return 1 - accuracy
	default:
		return 1
	}
}

// RelevantQuestions returns Q_K: the canonical questions over tuple pairs
// whose relative order the tree leaves leave uncertain — i.e. both answers
// have positive probability of pruning something. These are exactly the
// informative crowd tasks of §III.
func (ls *LeafSet) RelevantQuestions() []Question {
	tuples := ls.Tuples()
	var out []Question
	for a := 0; a < len(tuples); a++ {
		for b := a + 1; b < len(tuples); b++ {
			q := NewQuestion(tuples[a], tuples[b])
			ansYes := Answer{Q: q, Yes: true}
			var yesW, noW float64
			for i, p := range ls.Paths {
				switch PathConsistency(p, ansYes) {
				case Consistent:
					yesW += ls.W[i]
				case Inconsistent:
					noW += ls.W[i]
				case Undetermined:
				}
			}
			if yesW > 0 && noW > 0 {
				out = append(out, q)
			}
		}
	}
	return out
}
