package selection

import (
	"math/rand"

	"crowdtopk/internal/tpo"
)

// Random is the §IV baseline that picks budget questions uniformly at random
// among all tuple comparisons present in the tree — including irrelevant
// ones whose answer cannot prune anything.
type Random struct {
	rng *rand.Rand
}

// NewRandom returns the Random baseline driven by rng.
func NewRandom(rng *rand.Rand) *Random { return &Random{rng: rng} }

// Name implements Offline.
func (*Random) Name() string { return "random" }

// SelectBatch implements Offline. When the budget covers every pair the
// historical full-shuffle draw sequence is preserved; below that, the
// questions are drawn by a sparse partial Fisher–Yates that samples without
// replacement in O(budget) space — the old code materialized and shuffled
// all O(n²) pairs even for a budget of one.
func (r *Random) SelectBatch(ls *tpo.LeafSet, budget int, _ *Context) ([]tpo.Question, error) {
	if err := validateBudget(budget); err != nil {
		return nil, err
	}
	tuples := ls.Tuples()
	total := len(tuples) * (len(tuples) - 1) / 2
	if budget >= total {
		all := make([]tpo.Question, 0, total)
		for a := 0; a < len(tuples); a++ {
			for b := a + 1; b < len(tuples); b++ {
				all = append(all, tpo.NewQuestion(tuples[a], tuples[b]))
			}
		}
		r.rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		return all, nil
	}
	// Partial Fisher–Yates over the virtual pair sequence: swaps that a full
	// shuffle would have applied are tracked sparsely, so only the first
	// `budget` positions are ever materialized.
	swaps := make(map[int]int, 2*budget)
	at := func(i int) int {
		if v, ok := swaps[i]; ok {
			return v
		}
		return i
	}
	out := make([]tpo.Question, 0, budget)
	for i := 0; i < budget; i++ {
		j := i + r.rng.Intn(total-i)
		vi, vj := at(i), at(j)
		swaps[i], swaps[j] = vj, vi
		out = append(out, pairAt(tuples, vj))
	}
	return out, nil
}

// pairAt decodes the p-th pair of the row-major upper-triangle enumeration
// of tuple pairs — the same order the full materialization produces.
func pairAt(tuples []int, p int) tpo.Question {
	for a := 0; ; a++ {
		row := len(tuples) - a - 1
		if p < row {
			return tpo.NewQuestion(tuples[a], tuples[a+1+p])
		}
		p -= row
	}
}

// Naive is the §IV baseline that avoids irrelevant comparisons: budget
// questions drawn uniformly without replacement from the relevant set Q_K.
type Naive struct {
	rng *rand.Rand
}

// NewNaive returns the Naive baseline driven by rng.
func NewNaive(rng *rand.Rand) *Naive { return &Naive{rng: rng} }

// Name implements Offline.
func (*Naive) Name() string { return "naive" }

// SelectBatch implements Offline.
func (n *Naive) SelectBatch(ls *tpo.LeafSet, budget int, _ *Context) ([]tpo.Question, error) {
	if err := validateBudget(budget); err != nil {
		return nil, err
	}
	qk := ls.RelevantQuestions()
	n.rng.Shuffle(len(qk), func(i, j int) { qk[i], qk[j] = qk[j], qk[i] })
	if budget < len(qk) {
		qk = qk[:budget]
	}
	return qk, nil
}

// TBOff is the Top-B offline algorithm (§III.A): it scores every relevant
// question independently by its expected residual uncertainty R_q and
// returns the B questions with the largest expected uncertainty reduction
// (equivalently, the lowest R_q).
type TBOff struct{}

// Name implements Offline.
func (TBOff) Name() string { return "TB-off" }

// SelectBatch implements Offline.
func (TBOff) SelectBatch(ls *tpo.LeafSet, budget int, ctx *Context) ([]tpo.Question, error) {
	if err := validateBudget(budget); err != nil {
		return nil, err
	}
	qs, rs := QuestionResiduals(ls, ctx)
	idx := make([]int, len(qs))
	for i := range idx {
		idx[i] = i
	}
	// Sort ascending by residual, lexicographic on ties for determinism.
	sortByResidual(idx, qs, rs)
	if budget < len(idx) {
		idx = idx[:budget]
	}
	out := make([]tpo.Question, len(idx))
	for i, j := range idx {
		out[i] = qs[j]
	}
	return out, nil
}

func sortByResidual(idx []int, qs []tpo.Question, rs []float64) {
	lessIdx := func(a, b int) bool {
		if rs[a] < rs[b]-tieEpsilon {
			return true
		}
		if rs[b] < rs[a]-tieEpsilon {
			return false
		}
		return questionLess(qs[a], qs[b])
	}
	// Insertion sort: len(Q_K) is at most a few hundred here and the
	// comparator is cheap; avoids an extra closure-allocating dependency.
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && lessIdx(idx[j], idx[j-1]); j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
}

// COff is the Conditional offline algorithm (§III.A): questions are chosen
// one at a time, each minimizing the expected residual uncertainty
// R_{q1..qi,q}(T_K) conditioned on the previously selected (but still
// unanswered) questions.
type COff struct{}

// Name implements Offline.
func (COff) Name() string { return "C-off" }

// SelectBatch implements Offline. The partition of the leaf set induced by
// the questions chosen so far is maintained incrementally over the flat
// residual engine, so evaluating the (i+1)-th candidate costs one indexed
// split of the current cells instead of a fresh recursion over all i+1
// questions; the candidate loop fans across the context's sweep workers.
func (COff) SelectBatch(ls *tpo.LeafSet, budget int, ctx *Context) ([]tpo.Question, error) {
	if err := validateBudget(budget); err != nil {
		return nil, err
	}
	e := engineFor(ls, ctx)
	qk := e.Questions()
	cells := e.cellsAfter(nil)
	var chosen []tpo.Question
	chosenSet := make(map[tpo.Question]bool)
	for len(chosen) < budget && len(chosen) < len(qk) && len(cells) > 0 {
		rs := e.refinedResiduals(cells, qk, func(q tpo.Question) bool { return chosenSet[q] })
		bestQ := tpo.Question{I: -1}
		bestR := 0.0
		for i, q := range qk {
			if chosenSet[q] {
				continue
			}
			if r := rs[i]; bestQ.I == -1 || r < bestR-tieEpsilon {
				bestQ, bestR = q, r
			}
		}
		if bestQ.I == -1 {
			break
		}
		chosen = append(chosen, bestQ)
		chosenSet[bestQ] = true
		cells = e.refine(cells, bestQ)
	}
	return chosen, nil
}

// T1On is the Top-1 online algorithm (§III.B): at every step it asks the
// single question minimizing the expected residual uncertainty of the
// current (already pruned) tree, terminating early once a unique ordering
// remains.
type T1On struct{}

// Name implements Online.
func (T1On) Name() string { return "T1-on" }

// NextQuestion implements Online.
func (T1On) NextQuestion(ls *tpo.LeafSet, _ int, ctx *Context) (tpo.Question, bool, error) {
	qs, rs := QuestionResiduals(ls, ctx)
	if len(qs) == 0 {
		return tpo.Question{}, false, nil
	}
	q, _ := bestQuestion(qs, rs)
	return q, true, nil
}
