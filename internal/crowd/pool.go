package crowd

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"crowdtopk/internal/tpo"
)

// Aggregation selects how a Platform combines multiple worker answers to
// one question.
type Aggregation int

// Aggregation modes.
const (
	// MajorityVote counts answers equally.
	MajorityVote Aggregation = iota
	// WeightedVote weights each answer by the log-odds of the worker's
	// estimated accuracy (the Bayes-optimal combination under conditional
	// independence). Workers without an estimate fall back to their true
	// accuracy if qualification has not run.
	WeightedVote
)

// PoolSpec describes a heterogeneous worker pool: accuracies are drawn as
// MinAccuracy + (1−MinAccuracy)·X with X ~ Kumaraswamy(A, B). The
// Kumaraswamy distribution is a Beta-like family with a closed-form
// quantile, so the pool is reproducible from a seed without numerical
// sampling machinery. A = B = 1 is uniform; A > 1, B > 1 is bell-shaped.
type PoolSpec struct {
	Workers     int
	MinAccuracy float64
	A, B        float64
}

func (s PoolSpec) withDefaults() PoolSpec {
	if s.Workers == 0 {
		s.Workers = 16
	}
	if s.MinAccuracy == 0 {
		s.MinAccuracy = 0.55
	}
	if s.A == 0 {
		s.A = 2
	}
	if s.B == 0 {
		s.B = 2
	}
	return s
}

// kumaraswamyQuantile returns the p-quantile of Kumaraswamy(a, b).
func kumaraswamyQuantile(p, a, b float64) float64 {
	return math.Pow(1-math.Pow(1-p, 1/b), 1/a)
}

// NewHeterogeneousPlatform builds a platform whose workers have accuracies
// drawn from the pool spec. Accuracies are clamped to (0.5, 1]: a worker
// below coin-flip accuracy is indistinguishable from an adversary and real
// platforms reject them at qualification.
func NewHeterogeneousPlatform(truth *GroundTruth, spec PoolSpec, rng *rand.Rand) (*Platform, error) {
	spec = spec.withDefaults()
	if spec.Workers < 1 {
		return nil, fmt.Errorf("crowd: pool needs at least one worker, got %d", spec.Workers)
	}
	if spec.MinAccuracy < 0 || spec.MinAccuracy >= 1 {
		return nil, fmt.Errorf("crowd: min accuracy %g outside [0, 1)", spec.MinAccuracy)
	}
	workers := make([]*Worker, spec.Workers)
	for i := range workers {
		acc := spec.MinAccuracy + (1-spec.MinAccuracy)*kumaraswamyQuantile(rng.Float64(), spec.A, spec.B)
		if acc <= 0.5 {
			acc = 0.51
		}
		if acc > 1 {
			acc = 1
		}
		w, err := NewWorker(fmt.Sprintf("w%02d", i), acc, rng)
		if err != nil {
			return nil, err
		}
		workers[i] = w
	}
	return NewPlatform(truth, workers, rng)
}

// QualificationResult reports one worker's gold-question performance.
type QualificationResult struct {
	Worker    string
	Correct   int
	Total     int
	Estimated float64 // Laplace-smoothed accuracy estimate
	True      float64
}

// Qualify runs a qualification round: every worker answers all the gold
// questions (whose true answers the platform knows), and the platform
// stores Laplace-smoothed accuracy estimates used by WeightedVote. Gold
// answers count toward WorkerAnswers like normal work.
func (p *Platform) Qualify(gold []tpo.Question) ([]QualificationResult, error) {
	if len(gold) == 0 {
		return nil, fmt.Errorf("crowd: qualification needs at least one gold question")
	}
	if p.estimates == nil {
		p.estimates = make(map[string]float64, len(p.workers))
	}
	results := make([]QualificationResult, 0, len(p.workers))
	for _, w := range p.workers {
		correct := 0
		for _, q := range gold {
			truthAns := p.truth.Correct(q)
			a := w.Answer(p.truth, q)
			p.asked++
			if a.Yes == truthAns.Yes {
				correct++
			}
		}
		// Laplace smoothing keeps estimates off the 0/1 boundary where
		// log-odds weights diverge.
		est := (float64(correct) + 1) / (float64(len(gold)) + 2)
		p.estimates[w.ID] = est
		results = append(results, QualificationResult{
			Worker: w.ID, Correct: correct, Total: len(gold), Estimated: est, True: w.Accuracy,
		})
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Worker < results[j].Worker })
	return results, nil
}

// EstimatedAccuracy returns the qualification estimate for a worker (true
// accuracy when the worker was never qualified).
func (p *Platform) EstimatedAccuracy(workerID string) float64 {
	if est, ok := p.estimates[workerID]; ok {
		return est
	}
	for _, w := range p.workers {
		if w.ID == workerID {
			return w.Accuracy
		}
	}
	return 0.5
}

// askWeighted routes the question to effectiveVotes workers and combines
// their answers with log-odds weights. An odd panel cannot tie under equal
// weights; under unequal weights an exact zero score is vanishingly rare but
// still resolved consistently ("No") rather than silently.
func (p *Platform) askWeighted(q tpo.Question) tpo.Answer {
	votes := p.effectiveVotes()
	score := 0.0
	for v := 0; v < votes; v++ {
		w := p.workers[p.rng.Intn(len(p.workers))]
		a := w.Answer(p.truth, q)
		p.asked++
		acc := p.EstimatedAccuracy(w.ID)
		if acc >= 1 {
			acc = 1 - 1e-9
		}
		if acc <= 0 {
			acc = 1e-9
		}
		weight := math.Log(acc / (1 - acc))
		if a.Yes {
			score += weight
		} else {
			score -= weight
		}
	}
	return tpo.Answer{Q: q, Yes: score > 0}
}

// MeanAccuracy returns the pool's average true accuracy.
func (p *Platform) MeanAccuracy() float64 {
	total := 0.0
	for _, w := range p.workers {
		total += w.Accuracy
	}
	return total / float64(len(p.workers))
}

// WorkerAccuracies returns the true accuracy of every worker, sorted by id.
func (p *Platform) WorkerAccuracies() []float64 {
	ws := append([]*Worker(nil), p.workers...)
	sort.Slice(ws, func(i, j int) bool { return ws[i].ID < ws[j].ID })
	out := make([]float64, len(ws))
	for i, w := range ws {
		out[i] = w.Accuracy
	}
	return out
}
