package main

import (
	"fmt"
	"math/rand"

	"crowdtopk/internal/crowd"
	"crowdtopk/internal/dataset"
	"crowdtopk/internal/dist"
	"crowdtopk/internal/tpo"
)

// Settings every session of every workload shares: the paper's online
// strategy with the most-probable-ordering measure, a 16-answer budget, and
// a simulated crowd answering each question correctly with probability 0.9.
const (
	algorithm = "T1-on"
	measure   = "MPO"
	budget    = 16
	accuracy  = 0.9
	// kendallPenalty is the p of the top-K Kendall distance for pairs that
	// only one list orders.
	kendallPenalty = 0.5
	// clients is the number of closed-loop clients, one per CPU of the
	// reference machine: each stands for a crowd-platform integration that
	// waits for every reply before sending its session's next request.
	clients = 2
	// setupReps is how many times a run boots the server; setup_s is the
	// median.
	setupReps = 5
	// warmIdx numbers the warm-up sessions of catalog and durable, far from
	// the measured ones.
	warmIdx = 1 << 20
)

// workload is one traffic mix. The seed picks the datasets, the ground
// truths and the crowd's mistakes; the server only sees the generated specs
// and answers.
type workload struct {
	name string
	// Dataset shape: N tuples with uniform scores of the given width around
	// centers spacing apart, jittered by ±jitter (0 = half the spacing).
	n, k                   int
	width, spacing, jitter float64
	// shared: every session queries one dataset; otherwise each session
	// draws its own.
	shared bool
	// durable runs the server with -data-dir and -fsync always; restart
	// additionally boots it on a filled data dir and drains that instead
	// of creating sessions.
	durable, restart bool
	// prefix is the number of sessions, in index order, after which rss_mb
	// is read and over which result_distance is averaged.
	prefix int
	// ladder is the number of sessions the traced run replays per pass.
	ladder int
	// fill is the number of sessions the restart fill stores.
	fill int
}

var workloads = []workload{
	{name: "catalog", n: 24, k: 5, width: 3, spacing: 0.5, jitter: 0.001, shared: true, prefix: 384, ladder: 6},
	{name: "durable", n: 12, k: 3, width: 2, spacing: 0.5, durable: true, prefix: 1024, ladder: 24},
	{name: "restart", n: 12, k: 3, width: 2, spacing: 0.5, durable: true, restart: true, prefix: 1024, ladder: 24, fill: 14000},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func (w workload) generate(seed int64) ([]dist.Distribution, error) {
	return dataset.Generate(dataset.Spec{N: w.n, Family: dataset.Uniform, Width: w.width,
		Spacing: w.spacing, Jitter: w.jitter, Seed: seed})
}

// sessionInput is everything one session needs: its dataset, the world the
// crowd knows, and the crowd's randomness. The crowd is consumed in question
// order, so replaying an input that is asked the same questions gets the same
// answers.
type sessionInput struct {
	idx   int
	n, k  int
	specs []dataset.DistSpec
	truth *crowd.GroundTruth
	rng   *rand.Rand
	// Restart only: the id the fill stored the session under and the
	// answers it acknowledged before the server stopped.
	fillID    string
	fillAsked int
}

// answer is the simulated crowd's reply to q: the true order, flipped with
// probability 1−accuracy.
func (in *sessionInput) answer(q tpo.Question) tpo.Answer {
	a := in.truth.Correct(q)
	if in.rng.Float64() >= accuracy {
		a.Yes = !a.Yes
	}
	return a
}

// inputs builds session inputs for one run of a workload.
type inputs struct {
	w      workload
	seed   int64
	shared []dataset.DistSpec // catalog's dataset
	fill   *fillManifest      // restart's stored sessions
}

func newInputs(w workload, seed int64, fill *fillManifest) (*inputs, error) {
	in := &inputs{w: w, seed: seed, fill: fill}
	if w.shared {
		ds, err := w.generate(seed)
		if err != nil {
			return nil, err
		}
		if in.shared, err = dataset.SpecsOf(ds); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// count is how many sessions the workload can run (0 = unbounded).
func (in *inputs) count() int {
	if in.fill != nil {
		return len(in.fill.Sessions)
	}
	return 0
}

// session builds the input of session idx; calling it twice gives equal,
// independent inputs.
func (in *inputs) session(idx int) (*sessionInput, error) {
	rng := rand.New(rand.NewSource(mix(in.seed, int64(idx))))
	s := &sessionInput{idx: idx, n: in.w.n, k: in.w.k, rng: rng}
	switch {
	case in.fill != nil:
		fs := in.fill.Sessions[idx]
		s.specs, s.fillID, s.fillAsked = fs.Specs, fs.ID, len(fs.Answers)
		s.truth = crowd.TruthFromScores(fs.Scores)
		return s, nil
	case in.shared != nil:
		s.specs = in.shared
	default:
		ds, err := in.w.generate(mix(in.seed, -int64(idx)-1))
		if err != nil {
			return nil, err
		}
		if s.specs, err = dataset.SpecsOf(ds); err != nil {
			return nil, err
		}
	}
	ds, err := dataset.FromSpecs(s.specs)
	if err != nil {
		return nil, err
	}
	s.truth = crowd.SampleTruth(ds, rng)
	return s, nil
}

// mix derives an independent seed from a run seed and a stream number
// (splitmix64 finalizer).
func mix(seed, stream int64) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(stream)*0xD1B54A32D192ED03 + 0x632BE59BD9B4E019
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64((z ^ (z >> 31)) >> 1)
}
