package crowdtopk

import (
	"errors"
	"fmt"
	"math/rand"

	"crowdtopk/internal/bridge"
	"crowdtopk/internal/crowd"
	"crowdtopk/internal/dist"
	"crowdtopk/internal/engine"
	"crowdtopk/internal/rank"
	"crowdtopk/internal/tpo"
)

// init wires the bridge hooks that let the sibling public package
// crowdtopk/sdk unwrap a Dataset without this package exporting its
// internals.
func init() {
	bridge.DatasetDists = func(ds any) []dist.Distribution {
		if d, ok := ds.(*Dataset); ok && d != nil {
			return d.dists
		}
		return nil
	}
	bridge.DatasetNames = func(ds any) []string {
		if d, ok := ds.(*Dataset); ok && d != nil {
			return d.names
		}
		return nil
	}
}

// Uncertain is an uncertain tuple score: a bounded continuous distribution.
// Construct one with UniformScore, GaussianScore, TriangularScore,
// HistogramScore, or provide any internal distribution via the dataset
// helpers. A score built from invalid parameters carries the construction
// error (see Err); NewDataset surfaces it wrapped in ErrInvalidScore.
type Uncertain struct {
	d   dist.Distribution
	err error
}

// UniformScore models a score known to lie in [center−width/2, center+width/2].
func UniformScore(center, width float64) Uncertain {
	u, err := dist.NewUniformAround(center, width)
	if err != nil {
		return Uncertain{err: err}
	}
	return Uncertain{d: u}
}

// GaussianScore models a score with mean mu and standard deviation sigma
// (support truncated at ±4σ).
func GaussianScore(mu, sigma float64) Uncertain {
	g, err := dist.NewGaussian(mu, sigma)
	if err != nil {
		return Uncertain{err: err}
	}
	return Uncertain{d: g}
}

// TriangularScore models a score on [lo, hi] with the given mode.
func TriangularScore(lo, mode, hi float64) Uncertain {
	t, err := dist.NewTriangular(lo, mode, hi)
	if err != nil {
		return Uncertain{err: err}
	}
	return Uncertain{d: t}
}

// HistogramScore models a score as a histogram: edges (len = bins+1) and
// non-negative bin weights.
func HistogramScore(edges, weights []float64) Uncertain {
	p, err := dist.NewPiecewiseUniform(edges, weights)
	if err != nil {
		return Uncertain{err: err}
	}
	return Uncertain{d: p}
}

// Valid reports whether the score was constructed successfully.
func (u Uncertain) Valid() bool { return u.d != nil }

// Err returns why construction failed (nil for valid scores and for zero
// Uncertain values that were never constructed).
func (u Uncertain) Err() error { return u.err }

// Mean returns the expected score (0 for invalid scores).
func (u Uncertain) Mean() float64 {
	if u.d == nil {
		return 0
	}
	return u.d.Mean()
}

// Dataset is a relation of tuples with uncertain scores.
type Dataset struct {
	dists []dist.Distribution
	names []string
}

// ErrInvalidScore reports an Uncertain constructed from invalid parameters.
var ErrInvalidScore = errors.New("crowdtopk: invalid uncertain score")

// NewDataset builds a dataset from uncertain scores. Tuple ids are the slice
// indices.
func NewDataset(scores []Uncertain) (*Dataset, error) {
	if len(scores) == 0 {
		return nil, fmt.Errorf("crowdtopk: empty dataset")
	}
	ds := &Dataset{dists: make([]dist.Distribution, len(scores))}
	for i, s := range scores {
		if s.d == nil {
			if s.err != nil {
				return nil, fmt.Errorf("%w at index %d: %v", ErrInvalidScore, i, s.err)
			}
			return nil, fmt.Errorf("%w at index %d: zero Uncertain (not built by a Score constructor)", ErrInvalidScore, i)
		}
		ds.dists[i] = s.d
	}
	return ds, nil
}

// SetNames attaches human-readable tuple names (for Result rendering).
func (d *Dataset) SetNames(names []string) error {
	if len(names) != len(d.dists) {
		return fmt.Errorf("crowdtopk: %d names for %d tuples", len(names), len(d.dists))
	}
	d.names = append([]string(nil), names...)
	return nil
}

// Len returns the number of tuples.
func (d *Dataset) Len() int { return len(d.dists) }

// Name returns the tuple's name (its id when unnamed).
func (d *Dataset) Name(id int) string {
	if d.names != nil && id >= 0 && id < len(d.names) {
		return d.names[id]
	}
	return fmt.Sprintf("t%d", id)
}

// Question asks whether tuple I ranks above tuple J.
type Question struct {
	I, J int
}

// Answer replies to a Question: Yes means I ranks above J.
type Answer struct {
	Q   Question
	Yes bool
}

// Crowd answers comparison questions. Reliability is the probability an
// answer is correct: 1 lets the engine prune orderings outright, lower
// values trigger the Bayesian reweighting of the paper's noisy-worker model.
type Crowd interface {
	Ask(q Question) Answer
	Reliability() float64
}

// Algorithm names a question-selection strategy.
type Algorithm string

// Supported algorithms (see DESIGN.md for the paper mapping).
const (
	Random     Algorithm = engine.AlgRandom
	Naive      Algorithm = engine.AlgNaive
	TBOff      Algorithm = engine.AlgTBOff
	COff       Algorithm = engine.AlgCOff
	AStarOff   Algorithm = engine.AlgAStarOff
	T1On       Algorithm = engine.AlgT1On
	AStarOn    Algorithm = engine.AlgAStarOn
	Incr       Algorithm = engine.AlgIncr
	Exhaustive Algorithm = engine.AlgExhaustive
)

// MeasureName selects an uncertainty measure.
type MeasureName string

// Supported measures.
const (
	MeasureEntropy         MeasureName = "H"
	MeasureWeightedEntropy MeasureName = "Hw"
	MeasureORA             MeasureName = "ORA"
	// MeasureORAFootrule is U_ORA with the footrule-optimal aggregation (a
	// polynomial-time 2-approximation of the Kemeny median) as the
	// representative — the scalable variant for trees over many tuples.
	MeasureORAFootrule MeasureName = "ORA-FR"
	MeasureMPO         MeasureName = "MPO"
)

// Query configures top-K processing.
type Query struct {
	// K is the result size; Budget the maximum number of crowd questions.
	K, Budget int
	// Algorithm defaults to T1On (the paper's best cost/quality tradeoff
	// for interactive use).
	Algorithm Algorithm
	// Measure defaults to MeasureMPO.
	Measure MeasureName
	// RoundSize is the questions-per-round of the incr algorithm.
	RoundSize int
	// GridSize, MaxOrderings and Seed tune the numerical substrate.
	GridSize     int
	MaxOrderings int
	Seed         int64
	// Workers is the number of goroutines used for tree construction
	// (0 = all CPUs, 1 = sequential). The result is identical either way;
	// crowd questions are always asked one at a time.
	Workers int
}

// Result reports the processed query.
type Result struct {
	// Ranking is the representative top-K ordering (tuple ids, best
	// first): the single surviving ordering when Resolved, otherwise the
	// measure's representative (MPO or ORA).
	Ranking []int
	// Names is Ranking rendered through the dataset's tuple names.
	Names []string
	// Resolved reports whether a unique ordering remained.
	Resolved bool
	// QuestionsAsked counts crowd tasks consumed.
	QuestionsAsked int
	// Orderings is the number of orderings still possible.
	Orderings int
	// Uncertainty is the residual uncertainty under the query's measure.
	Uncertainty float64
}

// crowdAdapter bridges the public Crowd to the internal interface.
type crowdAdapter struct{ c Crowd }

func (a crowdAdapter) Ask(q tpo.Question) tpo.Answer {
	ans := a.c.Ask(Question{I: q.I, J: q.J})
	return tpo.Answer{Q: q, Yes: ans.Yes}
}

func (a crowdAdapter) Reliability() float64 { return a.c.Reliability() }

// Process answers a top-K query over the dataset, asking cr up to
// query.Budget questions.
func Process(d *Dataset, query Query, cr Crowd) (*Result, error) {
	if d == nil || d.Len() == 0 {
		return nil, fmt.Errorf("crowdtopk: nil or empty dataset")
	}
	if cr == nil {
		return nil, fmt.Errorf("crowdtopk: nil crowd")
	}
	if query.Algorithm == "" {
		query.Algorithm = T1On
	}
	if query.Measure == "" {
		query.Measure = MeasureMPO
	}
	cfg := engine.Config{
		Dists:     d.dists,
		K:         query.K,
		Budget:    query.Budget,
		Algorithm: string(query.Algorithm),
		Measure:   string(query.Measure),
		Crowd:     crowdAdapter{cr},
		// The engine only samples a world when it must simulate its own
		// crowd; with an external crowd the truth is never consulted, but
		// provide one anyway so diagnostics (distances) are meaningful in
		// simulations.
		Truth:     nil,
		RoundSize: query.RoundSize,
		Build: tpo.BuildOptions{
			GridSize:  query.GridSize,
			MaxLeaves: query.MaxOrderings,
			Workers:   query.Workers,
		},
		Seed:    query.Seed,
		Workers: query.Workers,
	}
	res, err := engine.Run(cfg)
	if err != nil {
		return nil, err
	}
	out := &Result{
		Ranking:        append([]int(nil), res.FinalOrdering...),
		Resolved:       res.Resolved,
		QuestionsAsked: res.Asked,
		Orderings:      res.FinalLeaves,
		Uncertainty:    res.FinalUncertainty,
	}
	out.Names = make([]string, len(out.Ranking))
	for i, id := range out.Ranking {
		out.Names[i] = d.Name(id)
	}
	return out, nil
}

// SimulatedCrowd builds a Crowd of simulated workers over a sampled world:
// workers answer correctly with probability accuracy, and each question is
// answered by `votes` workers with majority aggregation. votes must be at
// least 1; even counts are rounded up to the next odd number so the majority
// can never tie (and the crowd's reported Reliability matches the panel it
// actually convenes). It returns the crowd and the sampled ground-truth
// ranking (for evaluating results).
func SimulatedCrowd(d *Dataset, accuracy float64, votes int, seed int64) (Crowd, []int, error) {
	if votes < 1 {
		return nil, nil, fmt.Errorf("crowdtopk: votes = %d, need at least 1 worker answer per question", votes)
	}
	rng := rand.New(rand.NewSource(seed))
	truth := crowd.SampleTruth(d.dists, rng)
	if accuracy >= 1 && votes <= 1 {
		return simCrowd{&crowd.PerfectOracle{Truth: truth}}, truth.Real, nil
	}
	pf, err := crowd.NewUniformPlatform(truth, 16, accuracy, rng)
	if err != nil {
		return nil, nil, err
	}
	if votes > 1 {
		pf.Votes = votes
	}
	return simCrowd{pf}, truth.Real, nil
}

// simCrowd adapts the internal crowd to the public interface.
type simCrowd struct{ c crowd.Crowd }

func (s simCrowd) Ask(q Question) Answer {
	a := s.c.Ask(tpo.NewQuestion(q.I, q.J))
	// Re-express the answer relative to the caller's (I, J) orientation.
	yes := a.Higher() == q.I
	return Answer{Q: q, Yes: yes}
}

func (s simCrowd) Reliability() float64 { return s.c.Reliability() }

// ExpectedRanking returns the tuples ordered by expected score — the answer
// a system would give ignoring uncertainty entirely. Useful as a baseline.
func (d *Dataset) ExpectedRanking() []int { return dist.MeanRanking(d.dists) }

// Conditioned returns a new dataset whose marginal score beliefs are
// refined by a trusted answer "winner ranks above loser": the winner's
// distribution is truncated below the loser's minimum possible score and
// the loser's above the winner's maximum. This goes beyond the paper's
// tree pruning (an extension noted in DESIGN.md §5): subsequent queries on
// the returned dataset start from tighter score beliefs. The receiver is
// unchanged.
func (d *Dataset) Conditioned(winner, loser int) (*Dataset, error) {
	if winner < 0 || winner >= d.Len() || loser < 0 || loser >= d.Len() || winner == loser {
		return nil, fmt.Errorf("crowdtopk: invalid conditioning pair (%d, %d)", winner, loser)
	}
	w, l, err := dist.ConditionOnOrder(d.dists[winner], d.dists[loser])
	if err != nil {
		return nil, err
	}
	out := &Dataset{dists: append([]dist.Distribution(nil), d.dists...)}
	if d.names != nil {
		out.names = append([]string(nil), d.names...)
	}
	out.dists[winner] = w
	out.dists[loser] = l
	return out, nil
}

// PossibleOrderings materializes the TPO and returns every possible top-K
// ordering with its probability, for inspection and visualization.
func (d *Dataset) PossibleOrderings(k int, seed int64) ([][]int, []float64, error) {
	tree, err := tpo.Build(d.dists, k, tpo.BuildOptions{})
	if err != nil {
		return nil, nil, err
	}
	ls := tree.LeafSet()
	paths := make([][]int, ls.Len())
	for i, p := range ls.Paths {
		paths[i] = append([]int(nil), p...)
	}
	return paths, append([]float64(nil), ls.W...), nil
}

// RankDistance returns the normalized generalized Kendall tau distance
// between two top-k lists (0 identical, 1 disjoint) — the paper's quality
// metric, exposed for applications that evaluate results.
func RankDistance(a, b []int) float64 {
	return rank.KendallTopKNormalized(rank.Ordering(a), rank.Ordering(b), rank.DefaultPenalty)
}
