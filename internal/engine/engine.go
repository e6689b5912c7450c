// Package engine runs the paper's uncertainty-reduction protocol end to end
// against a simulated crowd and measures the outcome. Run drives one query
// through internal/session — the state machine that serves traffic — asking
// its questions of a Crowd until the session is terminal, and reports the
// residual distance to the real ordering. It is the harness behind every
// experiment in §IV.
package engine

import (
	"math/rand"
	"time"

	"crowdtopk/internal/crowd"
	"crowdtopk/internal/dist"
	"crowdtopk/internal/rank"
	"crowdtopk/internal/session"
	"crowdtopk/internal/tpo"
)

// Algorithm names accepted by Config.Algorithm.
const (
	AlgRandom     = session.AlgRandom
	AlgNaive      = session.AlgNaive
	AlgTBOff      = session.AlgTBOff
	AlgCOff       = session.AlgCOff
	AlgAStarOff   = session.AlgAStarOff
	AlgExhaustive = session.AlgExhaustive
	AlgT1On       = session.AlgT1On
	AlgAStarOn    = session.AlgAStarOn
	AlgIncr       = session.AlgIncr
)

// Algorithms lists every supported algorithm name.
func Algorithms() []string { return session.Algorithms() }

// Config describes one uncertainty-reduction run.
type Config struct {
	// Dists is the uncertain score model of the N tuples.
	Dists []dist.Distribution
	// K is the query's result size; Budget the number of crowd questions.
	K, Budget int
	// Algorithm selects the question-selection strategy (Alg* constants).
	Algorithm string
	// Measure names the uncertainty measure driving selection (H, Hw, ORA,
	// ORA-FR or MPO); empty selects U_MPO, the paper's best structure-aware
	// measure.
	Measure string
	// Crowd answers the questions. Nil defaults to a PerfectOracle over
	// Truth.
	Crowd crowd.Crowd
	// Truth is the realized world; nil samples one from Dists using Seed.
	Truth *crowd.GroundTruth
	// Build configures TPO construction.
	Build tpo.BuildOptions
	// RoundSize is the incr algorithm's questions-per-round n (default 5).
	RoundSize int
	// BranchEpsilon tunes the expected-residual recursion.
	BranchEpsilon float64
	// Seed drives all randomness of the run (truth sampling, noisy
	// workers, baseline shuffles).
	Seed int64
	// Workers bounds the number of concurrent trials in RunTrials and of
	// concurrent experiment cells; when Build.Workers is unset it is also
	// the parallelism of the run's TPO build and selection sweeps. Zero
	// selects GOMAXPROCS for trials/cells. Results are identical for every
	// value: trials derive independent RNGs from Seed and aggregate in
	// trial order, and sweep residuals land in per-index slots.
	Workers int
	// RecordTrajectory captures D(ω_r, T_K) after every answer into
	// Result.Trajectory (index 0 is the pre-question distance).
	RecordTrajectory bool
}

// Result reports one run.
type Result struct {
	Algorithm string
	// Asked is the number of questions actually posed (early termination
	// can leave budget unspent).
	Asked int
	// InitialDistance and FinalDistance are D(ω_r, T_K) when the session
	// is created and when it terminates. For incr the initial tree is the
	// partial one its first round was planned on.
	InitialDistance, FinalDistance float64
	// FinalUncertainty is the measure's value on the final tree.
	FinalUncertainty float64
	// InitialLeaves and FinalLeaves count the orderings in the tree.
	InitialLeaves, FinalLeaves int
	// Resolved reports whether a single ordering remained.
	Resolved bool
	// Contradictions counts answers that conflicted with every remaining
	// ordering (skipped; only possible when trusted answers meet a tree
	// whose true prefix was numerically pruned).
	Contradictions int
	// BuildTime covers TPO construction/extension; SelectTime question
	// selection; ApplyTime pruning/reweighting. TotalTime is the sum.
	BuildTime, SelectTime, ApplyTime, TotalTime time.Duration
	// FinalOrdering is the representative ordering reported to the user.
	FinalOrdering rank.Ordering
	// Trajectory is D(ω_r, T_K) before questions and after each answer
	// (only with Config.RecordTrajectory; incr records once its tree has
	// depth K).
	Trajectory []float64
}

// Run executes one uncertainty-reduction trial: it creates a session from
// cfg, answers every question the session asks with the crowd until the
// session is terminal, and reads the outcome, the phase timings and the
// truth distances off the session.
func Run(cfg Config) (*Result, error) {
	scfg := session.Config{
		Dists:         cfg.Dists,
		K:             cfg.K,
		Budget:        cfg.Budget,
		Algorithm:     cfg.Algorithm,
		Measure:       cfg.Measure,
		RoundSize:     cfg.RoundSize,
		BranchEpsilon: cfg.BranchEpsilon,
		Build:         cfg.Build,
		Seed:          cfg.Seed,
	}
	if scfg.Build.Workers == 0 {
		scfg.Build.Workers = cfg.Workers
	}
	truth := cfg.Truth
	if truth == nil {
		// The world comes from the head of the Seed stream; the session's
		// random baselines continue where sampling stopped.
		src := session.NewCountingSource(cfg.Seed)
		truth = crowd.SampleTruth(cfg.Dists, rand.New(src))
		scfg.RNGDraws = src.Draws()
	}
	cr := cfg.Crowd
	if cr == nil {
		cr = &crowd.PerfectOracle{Truth: truth}
	}
	// Any reliability of 1 or more means trusted answers that prune.
	scfg.Reliability = min(cr.Reliability(), 1)
	s, err := session.NewTransient(scfg)
	if err != nil {
		return nil, err
	}

	r := &Result{Algorithm: cfg.Algorithm}
	record := func(ls *tpo.LeafSet) {
		if cfg.RecordTrajectory && ls.K == cfg.K {
			r.Trajectory = append(r.Trajectory, truth.Distance(ls, 0))
		}
	}
	ls := s.LeafSet()
	r.InitialLeaves = ls.Len()
	r.InitialDistance = truth.Distance(ls, 0)
	record(ls)
	for {
		qs, _, err := s.NextQuestions(0)
		if err != nil {
			return nil, err
		}
		if len(qs) == 0 {
			break // terminal
		}
		for _, q := range qs {
			if err := s.SubmitAnswer(cr.Ask(q)); err != nil {
				return nil, err
			}
			if cfg.RecordTrajectory {
				record(s.LeafSet())
			}
		}
	}

	res := s.Result()
	r.Asked = res.Asked
	r.Contradictions = res.Contradictions
	r.FinalLeaves = res.Orderings
	r.Resolved = res.Resolved
	r.FinalUncertainty = res.Uncertainty
	r.FinalOrdering = res.Ranking
	r.FinalDistance = truth.Distance(s.LeafSet(), 0)
	t := s.Timings()
	r.BuildTime, r.SelectTime, r.ApplyTime = t.Build, t.Select, t.Apply
	r.TotalTime = t.Build + t.Select + t.Apply
	return r, nil
}
