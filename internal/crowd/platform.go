package crowd

import (
	"fmt"
	"math/rand"

	"crowdtopk/internal/tpo"
)

// Crowd is what the uncertainty-reduction engine sees: something that
// answers comparison questions with a known (assumed) reliability.
type Crowd interface {
	// Ask publishes the question and returns the (possibly aggregated)
	// answer.
	Ask(q tpo.Question) tpo.Answer
	// Reliability returns the probability that an Ask answer is correct,
	// used for the Bayesian reweighting of §III.C. 1 means answers may be
	// trusted for hard pruning.
	Reliability() float64
}

// Worker is a single crowd worker answering correctly with probability
// Accuracy and adversarially (flipped) otherwise.
type Worker struct {
	ID       string
	Accuracy float64
	rng      *rand.Rand
}

// NewWorker returns a worker with the given accuracy in (0, 1].
func NewWorker(id string, accuracy float64, rng *rand.Rand) (*Worker, error) {
	if accuracy <= 0 || accuracy > 1 {
		return nil, fmt.Errorf("crowd: worker accuracy %g outside (0, 1]", accuracy)
	}
	return &Worker{ID: id, Accuracy: accuracy, rng: rng}, nil
}

// Answer returns the worker's reply to q under the given world.
func (w *Worker) Answer(truth *GroundTruth, q tpo.Question) tpo.Answer {
	a := truth.Correct(q)
	if w.Accuracy < 1 && w.rng.Float64() >= w.Accuracy {
		a.Yes = !a.Yes
	}
	return a
}

// Platform simulates a crowdsourcing marketplace: a pool of workers, random
// task routing and optional majority-vote aggregation.
type Platform struct {
	truth   *GroundTruth
	workers []*Worker
	rng     *rand.Rand

	// Votes is the number of workers each Ask routes the question to; the
	// majority answer is returned. Non-positive values count as 1 (no
	// aggregation); even values are rounded up to the next odd number so a
	// majority always exists — an even panel can tie, and silently breaking
	// ties in one direction would bias answers while Reliability() reports
	// the accuracy of an odd panel. See effectiveVotes.
	Votes int
	// Aggregation selects how multiple answers combine (MajorityVote by
	// default; WeightedVote uses qualification estimates).
	Aggregation Aggregation

	asked     int
	estimates map[string]float64 // qualification accuracy estimates by worker id
}

// NewPlatform builds a platform over the given world and worker pool.
func NewPlatform(truth *GroundTruth, workers []*Worker, rng *rand.Rand) (*Platform, error) {
	if truth == nil || len(workers) == 0 {
		return nil, fmt.Errorf("crowd: platform needs a world and at least one worker")
	}
	return &Platform{truth: truth, workers: workers, rng: rng, Votes: 1}, nil
}

// NewUniformPlatform is a convenience constructor: n workers of identical
// accuracy.
func NewUniformPlatform(truth *GroundTruth, n int, accuracy float64, rng *rand.Rand) (*Platform, error) {
	workers := make([]*Worker, n)
	for i := range workers {
		w, err := NewWorker(fmt.Sprintf("w%02d", i), accuracy, rng)
		if err != nil {
			return nil, err
		}
		workers[i] = w
	}
	return NewPlatform(truth, workers, rng)
}

// effectiveVotes is the single authority on how many worker answers one Ask
// collects: Votes clamped to at least 1 and rounded up to the next odd
// number. Ask and Reliability both use it, so the Bayesian reweighting
// downstream always models exactly the aggregation the platform delivers.
func (p *Platform) effectiveVotes() int {
	v := p.Votes
	if v < 1 {
		v = 1
	}
	if v%2 == 0 {
		v++
	}
	return v
}

// Ask implements Crowd: the question is routed to effectiveVotes random
// workers and the aggregated answer returned (simple majority, or
// accuracy-weighted vote when Aggregation is WeightedVote).
func (p *Platform) Ask(q tpo.Question) tpo.Answer {
	if p.Aggregation == WeightedVote {
		return p.askWeighted(q)
	}
	votes := p.effectiveVotes()
	yes := 0
	for v := 0; v < votes; v++ {
		w := p.workers[p.rng.Intn(len(p.workers))]
		p.asked++
		if w.Answer(p.truth, q).Yes {
			yes++
		}
	}
	return tpo.Answer{Q: q, Yes: yes*2 > votes}
}

// Reliability implements Crowd: the majority-vote accuracy of the pool's
// mean worker accuracy over the panel size Ask actually uses.
func (p *Platform) Reliability() float64 {
	mean := 0.0
	for _, w := range p.workers {
		mean += w.Accuracy
	}
	mean /= float64(len(p.workers))
	return MajorityAccuracy(mean, p.effectiveVotes())
}

// WorkerAnswers returns how many individual worker answers were collected.
func (p *Platform) WorkerAnswers() int { return p.asked }

// MajorityAccuracy returns the probability that the majority of `votes`
// independent answers, each correct with probability p, is correct. votes is
// rounded up to the next odd number.
func MajorityAccuracy(p float64, votes int) float64 {
	if votes <= 1 {
		return p
	}
	if votes%2 == 0 {
		votes++
	}
	need := votes/2 + 1
	total := 0.0
	for k := need; k <= votes; k++ {
		total += binomPMF(votes, k, p)
	}
	if total > 1 {
		return 1
	}
	return total
}

func binomPMF(n, k int, p float64) float64 {
	c := 1.0
	for i := 0; i < k; i++ {
		c = c * float64(n-i) / float64(i+1)
	}
	pk := 1.0
	for i := 0; i < k; i++ {
		pk *= p
	}
	q := 1.0
	for i := 0; i < n-k; i++ {
		q *= 1 - p
	}
	return c * pk * q
}

// PerfectOracle is a Crowd that always answers correctly — the trusted-crowd
// setting of §III where answers prune the tree outright.
type PerfectOracle struct {
	Truth *GroundTruth
	count int
}

// Ask implements Crowd.
func (o *PerfectOracle) Ask(q tpo.Question) tpo.Answer {
	o.count++
	return o.Truth.Correct(q)
}

// Reliability implements Crowd.
func (o *PerfectOracle) Reliability() float64 { return 1 }

// Asked returns how many questions the oracle answered.
func (o *PerfectOracle) Asked() int { return o.count }
