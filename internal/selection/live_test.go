package selection

import (
	"fmt"
	"math/rand"
	"testing"

	"crowdtopk/internal/dist"
	"crowdtopk/internal/rank"
	"crowdtopk/internal/tpo"
	"crowdtopk/internal/uncertainty"
)

// The live engine reconciles its held arena with each leaf set it is handed
// instead of rebuilding; these tests pin that every strategy selects
// byte-identical batches through a live context and a from-scratch engine
// across interleaved answer sequences — trusted prunes, noisy reweights,
// several answers between rounds, and deeper incremental trees included.

// liveHarness owns one tree and one LiveEngine, mirroring how a session
// drives them: answers condition only the tree, and each round hands the
// engine a fresh snapshot.
type liveHarness struct {
	tree *tpo.Tree
	le   *LiveEngine
	m    uncertainty.Measure
}

func newLiveHarness(t *testing.T, seed int64, n, k int, m uncertainty.Measure) *liveHarness {
	return &liveHarness{tree: buildTestTree(t, seed, n, k), le: NewLiveEngine(), m: m}
}

// ctxs returns a fresh (stateless) and a live context over the same tree.
func (h *liveHarness) ctxs() (fresh, live *Context) {
	fresh = ctxFor(h.tree, h.m)
	live = ctxFor(h.tree, h.m)
	live.Live = h.le
	return fresh, live
}

// applyTrusted prunes by a relevant answer.
func (h *liveHarness) applyTrusted(t *testing.T, a tpo.Answer) {
	t.Helper()
	if err := h.tree.Prune(a); err != nil {
		t.Fatalf("prune %v: %v", a, err)
	}
}

// applyNoisy reweights by an answer with the given accuracy.
func (h *liveHarness) applyNoisy(t *testing.T, a tpo.Answer, acc float64) {
	t.Helper()
	if err := h.tree.Reweight(a, acc); err != nil {
		t.Fatalf("reweight %v: %v", a, err)
	}
}

// checkStrategies runs the given strategies over the current snapshot through
// both contexts and requires identical output. astar additionally runs the
// A*-off / A*-on / exhaustive trio (admissible heuristic permitting).
func (h *liveHarness) checkStrategies(t *testing.T, label string, astar bool) {
	t.Helper()
	ls := h.tree.LeafSet()
	freshCtx, liveCtx := h.ctxs()

	type offCase struct {
		name   string
		run    func(ctx *Context, rng *rand.Rand) ([]tpo.Question, error)
		budget int
	}
	cases := []offCase{
		{"random", func(ctx *Context, rng *rand.Rand) ([]tpo.Question, error) {
			return NewRandom(rng).SelectBatch(ls, 3, ctx)
		}, 3},
		{"naive", func(ctx *Context, rng *rand.Rand) ([]tpo.Question, error) {
			return NewNaive(rng).SelectBatch(ls, 3, ctx)
		}, 3},
		{"TB-off", func(ctx *Context, _ *rand.Rand) ([]tpo.Question, error) {
			return (TBOff{}).SelectBatch(ls, 3, ctx)
		}, 3},
		{"C-off", func(ctx *Context, _ *rand.Rand) ([]tpo.Question, error) {
			return (COff{}).SelectBatch(ls, 3, ctx)
		}, 3},
	}
	if astar {
		cases = append(cases,
			offCase{"A*-off", func(ctx *Context, _ *rand.Rand) ([]tpo.Question, error) {
				return (AStarOff{}).SelectBatch(ls, 3, ctx)
			}, 3},
			offCase{"exhaustive", func(ctx *Context, _ *rand.Rand) ([]tpo.Question, error) {
				return (Exhaustive{}).SelectBatch(ls, 2, ctx)
			}, 2},
		)
	}
	for _, c := range cases {
		// Identical rng seeds per path: the random baselines must draw the
		// same sequence, which they do iff the visible tree state matches.
		fb, err := c.run(freshCtx, rand.New(rand.NewSource(11)))
		if err != nil {
			t.Fatalf("%s/%s fresh: %v", label, c.name, err)
		}
		lb, err := c.run(liveCtx, rand.New(rand.NewSource(11)))
		if err != nil {
			t.Fatalf("%s/%s live: %v", label, c.name, err)
		}
		if !sameBatch(fb, lb) {
			t.Fatalf("%s/%s: live batch %v differs from fresh %v", label, c.name, lb, fb)
		}
	}

	onlines := []Online{T1On{}}
	if astar {
		onlines = append(onlines, AStarOn{})
	}
	for _, on := range onlines {
		fq, fok, err := on.NextQuestion(ls, 3, freshCtx)
		if err != nil {
			t.Fatalf("%s/%s fresh: %v", label, on.Name(), err)
		}
		lq, lok, err := on.NextQuestion(ls, 3, liveCtx)
		if err != nil {
			t.Fatalf("%s/%s live: %v", label, on.Name(), err)
		}
		if fok != lok || fq != lq {
			t.Fatalf("%s/%s: live %v/%v differs from fresh %v/%v", label, on.Name(), lq, lok, fq, fok)
		}
	}
}

// pickRelevant deterministically picks a relevant question and an answer side.
func pickRelevant(ls *tpo.LeafSet, rng *rand.Rand) (tpo.Answer, bool) {
	qk := ls.RelevantQuestions()
	if len(qk) == 0 {
		return tpo.Answer{}, false
	}
	q := qk[rng.Intn(len(qk))]
	return tpo.Answer{Q: q, Yes: rng.Intn(2) == 0}, true
}

// TestLiveStrategiesMatchFreshAcrossAnswers is the cross-check suite of the
// incremental engine: all 8 strategies, interleaved trusted answer
// sequences, live context vs from-scratch engine, byte-identical batches at
// every step.
func TestLiveStrategiesMatchFreshAcrossAnswers(t *testing.T) {
	before := LiveEngineStats()
	for seed := int64(0); seed < 3; seed++ {
		for _, m := range []uncertainty.Measure{uncertainty.Entropy{}, uncertainty.MPO{Penalty: rank.DefaultPenalty}} {
			// The A* trio needs the admissible entropy heuristic to stay
			// cheap; the other six run under both measures.
			astar := m.Name() == "H"
			h := newLiveHarness(t, 700+seed, 7, 3, m)
			rng := rand.New(rand.NewSource(seed))
			for round := 0; round < 6; round++ {
				h.checkStrategies(t, m.Name(), astar)
				a, ok := pickRelevant(h.tree.LeafSet(), rng)
				if !ok {
					break
				}
				h.applyTrusted(t, a)
			}
		}
	}
	after := LiveEngineStats()
	if after.Compactions <= before.Compactions {
		t.Fatal("no reconcile dropped leaves: the live path never ran")
	}
	if after.Reuses <= before.Reuses {
		t.Fatal("no engine reuses recorded: every round rebuilt from scratch")
	}
}

// TestLiveNoisyReweightOnFilteredArena is the seeded fuzz-style check for
// noisy reweighting over an arena that was already filtered: a couple of
// trusted prunes first, then noisy answers (accuracy < 1) interleaved with
// more prunes, comparing strategy output against a from-scratch engine
// after every update.
func TestLiveNoisyReweightOnFilteredArena(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		for _, m := range []uncertainty.Measure{uncertainty.Entropy{}, uncertainty.NewWeightedEntropy(0)} {
			h := newLiveHarness(t, 900+seed, 7, 3, m)
			rng := rand.New(rand.NewSource(seed))
			// Attach the engine, then drop some leaves.
			h.checkStrategies(t, m.Name(), false)
			for i := 0; i < 2; i++ {
				if a, ok := pickRelevant(h.tree.LeafSet(), rng); ok {
					h.applyTrusted(t, a)
				}
			}
			h.checkStrategies(t, m.Name(), false)
			for round := 0; round < 6; round++ {
				a, ok := pickRelevant(h.tree.LeafSet(), rng)
				if !ok {
					break
				}
				if round%3 == 2 {
					// An answer against the heavier branch: the Bayesian
					// update then *raises* previously down-weighted leaves —
					// the contradicted-evidence shape.
					a.Yes = !a.Yes
					h.applyNoisy(t, a, 0.7)
				} else if round%2 == 0 {
					h.applyNoisy(t, a, 0.85)
				} else {
					h.applyTrusted(t, a)
				}
				h.checkStrategies(t, m.Name(), false)
			}
		}
	}
}

// TestLiveCompaction drives pruning answers through one engine until a
// reconcile drops leaves, and verifies the filtered engine still matches a
// from-scratch build (and that the filter actually ran).
func TestLiveCompaction(t *testing.T) {
	before := LiveEngineStats()
	compacted := false
	for seed := int64(0); seed < 4 && !compacted; seed++ {
		h := newLiveHarness(t, 1100+seed, 8, 3, uncertainty.Entropy{})
		rng := rand.New(rand.NewSource(seed))
		for round := 0; round < 25; round++ {
			h.checkStrategies(t, "compact", false)
			a, ok := pickRelevant(h.tree.LeafSet(), rng)
			if !ok {
				break
			}
			h.applyTrusted(t, a)
			if LiveEngineStats().Compactions > before.Compactions {
				compacted = true
				h.checkStrategies(t, "post-compact", false)
				break
			}
		}
	}
	if !compacted {
		t.Fatal("no compaction triggered across all seeds")
	}
}

// TestLiveEngineRebuildsOnUnsyncedTree pins that a prune the engine never
// saw is never served stale: engineFor must replace the held engine, here by
// filtering it to the survivors, and match a fresh build.
func TestLiveEngineRebuildsOnUnsyncedTree(t *testing.T) {
	h := newLiveHarness(t, 1300, 6, 3, uncertainty.Entropy{})
	h.checkStrategies(t, "attach", false)
	if h.le.eng == nil {
		t.Fatal("engine did not attach")
	}
	held := h.le.eng
	a, ok := pickRelevant(h.tree.LeafSet(), rand.New(rand.NewSource(1)))
	if !ok {
		t.Fatal("no relevant question")
	}
	if err := h.tree.Prune(a); err != nil { // deliberately no Sync
		t.Fatal(err)
	}
	h.checkStrategies(t, "unsynced", false)
	if h.le.eng == held {
		t.Fatal("engineFor reused a stale engine after an unsynced tree change")
	}
}

// TestLiveEngineInvalidate pins that Invalidate drops the held engine and
// the next round re-attaches a fresh one with correct output.
func TestLiveEngineInvalidate(t *testing.T) {
	h := newLiveHarness(t, 1400, 6, 3, uncertainty.Entropy{})
	h.checkStrategies(t, "attach", false)
	if h.le.eng == nil {
		t.Fatal("engine did not attach")
	}
	h.le.Invalidate()
	if h.le.eng != nil {
		t.Fatal("Invalidate left state behind")
	}
	h.checkStrategies(t, "reattached", false)
	if h.le.eng == nil {
		t.Fatal("engine did not re-attach after Invalidate")
	}
}

// TestLiveEngineORAMatchesFresh pins that ORA, whose aggregation input
// enumerates every view leaf, can go through the live engine like every
// other measure: a reconciled arena holds exactly the leaves a fresh build
// would, so the engine attaches and matches fresh across answers.
func TestLiveEngineORAMatchesFresh(t *testing.T) {
	m := uncertainty.ORA{Penalty: rank.DefaultPenalty, Footrule: true}
	h := newLiveHarness(t, 1500, 6, 3, m)
	rng := rand.New(rand.NewSource(2))
	for round := 0; round < 3; round++ {
		h.checkStrategies(t, "ORA", false)
		if h.le.eng == nil {
			t.Fatal("live engine did not attach under ORA")
		}
		a, ok := pickRelevant(h.tree.LeafSet(), rng)
		if !ok {
			break
		}
		h.applyTrusted(t, a)
	}
}

// TestLiveSyncNoEngineIsNoop pins that an answer applied before any round
// attached an engine leaves it detached, and the first round then attaches
// one that matches fresh.
func TestLiveSyncNoEngineIsNoop(t *testing.T) {
	h := newLiveHarness(t, 1600, 6, 3, uncertainty.Entropy{})
	a, ok := pickRelevant(h.tree.LeafSet(), rand.New(rand.NewSource(3)))
	if !ok {
		t.Fatal("no relevant question")
	}
	h.applyTrusted(t, a) // no engine held yet
	if h.le.eng != nil {
		t.Fatal("an answer attached an engine")
	}
	h.checkStrategies(t, "post-noop", false)
}

// TestLiveCatchesUpAfterBatchedAnswers applies several trusted and noisy
// answers with no round in between — the shape of an incr round or an
// offline batch — so the next round reconciles the engine with all of them
// in one pass, for all 8 strategies.
func TestLiveCatchesUpAfterBatchedAnswers(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		for _, m := range []uncertainty.Measure{uncertainty.Entropy{}, uncertainty.MPO{Penalty: rank.DefaultPenalty}} {
			astar := m.Name() == "H"
			h := newLiveHarness(t, 1700+seed, 7, 3, m)
			rng := rand.New(rand.NewSource(seed))
			h.checkStrategies(t, m.Name(), astar)
			rebuilds := LiveEngineStats().Rebuilds
			for batch := 0; batch < 2; batch++ {
				for i := 0; i < 3; i++ {
					a, ok := pickRelevant(h.tree.LeafSet(), rng)
					if !ok {
						break
					}
					if i == 1 {
						h.applyNoisy(t, a, 0.8)
					} else {
						h.applyTrusted(t, a)
					}
				}
				h.checkStrategies(t, fmt.Sprintf("%s/batch %d", m.Name(), batch), astar)
			}
			if LiveEngineStats().Rebuilds != rebuilds {
				t.Fatalf("%s seed %d: a batched catch-up rebuilt instead of reconciling", m.Name(), seed)
			}
		}
	}
}

// TestLiveEngineRebuildsAfterExtend attaches an engine to an incremental
// tree, answers, and extends the tree by a level with no Invalidate, as an
// incr round does: the deeper leaf set cannot pair with the held arena, so
// the next round must rebuild and match a fresh engine.
func TestLiveEngineRebuildsAfterExtend(t *testing.T) {
	rng := rand.New(rand.NewSource(1800))
	ds := make([]dist.Distribution, 7)
	for i := range ds {
		u, err := dist.NewUniformAround(float64(i)*0.5+rng.Float64()*0.3, 1.6)
		if err != nil {
			t.Fatal(err)
		}
		ds[i] = u
	}
	tree, err := tpo.StartIncremental(ds, 3, tpo.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h := &liveHarness{tree: tree, le: NewLiveEngine(), m: uncertainty.Entropy{}}
	h.checkStrategies(t, "depth 1", false)
	for tree.Depth() < 3 {
		if a, ok := pickRelevant(tree.LeafSet(), rng); ok {
			h.applyTrusted(t, a)
		}
		held, rebuilds := h.le.eng, LiveEngineStats().Rebuilds
		if err := tree.Extend(); err != nil {
			t.Fatal(err)
		}
		h.checkStrategies(t, fmt.Sprintf("depth %d", tree.Depth()), false)
		if h.le.eng == held || LiveEngineStats().Rebuilds == rebuilds {
			t.Fatalf("depth %d: the engine was not rebuilt after Extend", tree.Depth())
		}
	}
}
