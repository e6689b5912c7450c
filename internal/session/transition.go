package session

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"crowdtopk/internal/selection"
	"crowdtopk/internal/tpo"
)

// This file holds the protocol's state transitions — how strategies are
// instantiated by name, how an answer conditions the tree, and how the incr
// algorithm plans a question round. Every query runs through them: served
// sessions and the experiments' engine.Run, which drives a Session.

// Algorithm names accepted by Config.Algorithm.
const (
	AlgRandom     = "random"
	AlgNaive      = "naive"
	AlgTBOff      = "TB-off"
	AlgCOff       = "C-off"
	AlgAStarOff   = "A*-off"
	AlgExhaustive = "exhaustive"
	AlgT1On       = "T1-on"
	AlgAStarOn    = "A*-on"
	AlgIncr       = "incr"
)

// Algorithms lists every supported algorithm name.
func Algorithms() []string {
	return []string{AlgRandom, AlgNaive, AlgTBOff, AlgCOff, AlgAStarOff, AlgExhaustive, AlgT1On, AlgAStarOn, AlgIncr}
}

// ErrUnknownAlgorithm reports an unrecognized Config.Algorithm.
var ErrUnknownAlgorithm = errors.New("session: unknown algorithm")

// applyAnswer conditions the tree on one crowd answer: trusted answers
// (reliability >= 1) prune inconsistent orderings outright, noisy answers
// apply the Bayesian reweighting of §III.C. A contradictory answer — one
// that conflicts with every remaining ordering, possible only when trusted
// answers meet a tree whose true prefix was numerically pruned at build
// time — carries no usable information: the tree is left unchanged and
// contradicted is true. Any other failure is a real error.
func applyAnswer(t *tpo.Tree, a tpo.Answer, reliability float64) (contradicted bool, err error) {
	if reliability >= 1 {
		err = t.Prune(a)
	} else {
		err = t.Reweight(a, reliability)
	}
	if errors.Is(err, tpo.ErrContradiction) {
		return true, nil
	}
	return false, err
}

// offlineStrategy instantiates the named batch strategy. The rng drives the
// random baselines and is unused by the deterministic strategies.
func offlineStrategy(name string, rng *rand.Rand) (selection.Offline, error) {
	switch name {
	case AlgRandom:
		return selection.NewRandom(rng), nil
	case AlgNaive:
		return selection.NewNaive(rng), nil
	case AlgTBOff:
		return selection.TBOff{}, nil
	case AlgCOff:
		return selection.COff{}, nil
	case AlgAStarOff:
		return selection.AStarOff{}, nil
	case AlgExhaustive:
		return selection.Exhaustive{}, nil
	default:
		return nil, fmt.Errorf("%w: %q is not offline", ErrUnknownAlgorithm, name)
	}
}

// onlineStrategy instantiates the named one-question-at-a-time strategy.
func onlineStrategy(name string) (selection.Online, error) {
	switch name {
	case AlgT1On:
		return selection.T1On{}, nil
	case AlgAStarOn:
		return selection.AStarOn{}, nil
	default:
		return nil, fmt.Errorf("%w: %q is not online", ErrUnknownAlgorithm, name)
	}
}

// isOffline reports whether the named algorithm selects a whole batch up
// front (the offline strategies of §III.A and the random baselines).
func isOffline(name string) bool {
	switch name {
	case AlgRandom, AlgNaive, AlgTBOff, AlgCOff, AlgAStarOff, AlgExhaustive:
		return true
	}
	return false
}

// isOnline reports whether the named algorithm picks one question at a time
// conditioned on all previous answers (§III.B).
func isOnline(name string) bool {
	return name == AlgT1On || name == AlgAStarOn
}

// planIncrRound runs the round head of the incr algorithm (§III.D): extend
// the tree level by level while there are not enough relevant questions to
// fill a round of min(roundSize, remaining), then select the round with the
// TB-off criterion. It returns an empty batch once the tree is fully built
// and no relevant question remains. buildTime and selectTime report where
// the wall-clock went, for the session's phase timings.
func planIncrRound(t *tpo.Tree, k, roundSize, remaining int, ctx *selection.Context) (batch []tpo.Question, buildTime, selectTime time.Duration, err error) {
	if remaining <= 0 {
		return nil, 0, 0, nil
	}
	qs := t.LeafSet().RelevantQuestions()
	for t.Depth() < k && len(qs) < min(roundSize, remaining) {
		start := time.Now()
		err := t.Extend()
		buildTime += time.Since(start)
		if err != nil {
			return nil, buildTime, 0, err
		}
		qs = t.LeafSet().RelevantQuestions()
	}
	if len(qs) == 0 {
		return nil, buildTime, 0, nil
	}
	m := min(min(roundSize, remaining), len(qs))
	start := time.Now()
	batch, err = (selection.TBOff{}).SelectBatch(t.LeafSet(), m, ctx)
	selectTime = time.Since(start)
	if err != nil {
		return nil, buildTime, selectTime, err
	}
	return batch, buildTime, selectTime, nil
}

// extendToDepth materializes any missing tree levels up to depth k, so the
// reported result is a depth-k leaf set comparable across algorithms. It
// returns the construction time spent.
func extendToDepth(t *tpo.Tree, k int) (time.Duration, error) {
	var total time.Duration
	for t.Depth() < k {
		start := time.Now()
		err := t.Extend()
		total += time.Since(start)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
