package session

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"crowdtopk/internal/crowd"
	"crowdtopk/internal/dataset"
	"crowdtopk/internal/dist"
	"crowdtopk/internal/par"
	"crowdtopk/internal/selection"
	"crowdtopk/internal/tpo"
	"crowdtopk/internal/uncertainty"
)

func testDists(t *testing.T, n int, seed int64) []dist.Distribution {
	t.Helper()
	ds, err := dataset.Generate(dataset.Spec{N: n, Width: 2.2, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// drive answers every question the session asks with cr until the session
// terminates, pulling `batch` questions at a time (batch < 1 pulls all
// pending).
func drive(t *testing.T, s *Session, cr crowd.Crowd, batch int) {
	t.Helper()
	for i := 0; i < 10_000; i++ {
		qs, _, err := s.NextQuestions(batch)
		if err != nil {
			t.Fatal(err)
		}
		if len(qs) == 0 {
			if !s.State().Terminal() {
				t.Fatalf("no questions but state %s is not terminal", s.State())
			}
			return
		}
		for _, q := range qs {
			if err := s.SubmitAnswer(cr.Ask(q)); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Fatal("session did not terminate")
}

// TestSessionMatchesEngine: for every algorithm, a session fed by a perfect
// crowd reproduces the result the batch engine recorded for the same
// configuration before engine.Run became a driver over this package —
// ranking, question count, surviving orderings, uncertainty and resolution.
func TestSessionMatchesEngine(t *testing.T) {
	ds := testDists(t, 7, 5)
	truth := crowd.SampleTruth(ds, rand.New(rand.NewSource(99)))
	recorded := []struct {
		alg       string
		asked     int
		orderings int
		resolved  bool
		ranking   []int
		u         float64
	}{
		{AlgT1On, 6, 1, true, []int{5, 6, 4}, 0},
		{AlgAStarOn, 12, 1, true, []int{5, 6, 4}, 0},
		{AlgTBOff, 12, 1, true, []int{5, 6, 4}, 0},
		{AlgCOff, 12, 2, false, []int{5, 6, 4}, 0.00040403263043547078},
		{AlgAStarOff, 12, 2, false, []int{5, 6, 4}, 0.00040403263043547051},
		{AlgRandom, 12, 3, false, []int{5, 6, 4}, 0.027474172183064454},
		{AlgNaive, 12, 1, true, []int{5, 6, 4}, 0},
		{AlgIncr, 12, 3, false, []int{5, 6, 4}, 0.0035992261377960628},
	}
	for _, want := range recorded {
		t.Run(want.alg, func(t *testing.T) {
			const k, budget, seed = 3, 12, 17
			s, err := New(Config{Dists: ds, K: k, Budget: budget, Algorithm: want.alg, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			drive(t, s, &crowd.PerfectOracle{Truth: truth}, 0)
			got := s.Result()

			if got.Asked != want.asked {
				t.Errorf("asked = %d, want %d", got.Asked, want.asked)
			}
			if got.Orderings != want.orderings {
				t.Errorf("orderings = %d, want %d", got.Orderings, want.orderings)
			}
			if got.Resolved != want.resolved {
				t.Errorf("resolved = %v, want %v", got.Resolved, want.resolved)
			}
			if !slices.Equal(got.Ranking, want.ranking) {
				t.Fatalf("ranking %v, want %v", got.Ranking, want.ranking)
			}
			if math.Abs(got.Uncertainty-want.u) > 1e-9 {
				t.Errorf("uncertainty = %v, want %v", got.Uncertainty, want.u)
			}
			wantState := Exhausted
			if want.resolved {
				wantState = Converged
			}
			if got.State != wantState {
				t.Errorf("state = %s, want %s", got.State, wantState)
			}
		})
	}
}

// TestSessionNoisyMatchesEngine: with reliability < 1 the session reweights
// to the result the batch engine recorded for the same worker answers.
func TestSessionNoisyMatchesEngine(t *testing.T) {
	ds := testDists(t, 6, 11)
	truth := crowd.SampleTruth(ds, rand.New(rand.NewSource(4)))
	const k, budget, accuracy = 2, 10, 0.8
	cr, err := crowd.NewUniformPlatform(truth, 16, accuracy, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Dists: ds, K: k, Budget: budget, Algorithm: AlgT1On, Reliability: cr.Reliability()})
	if err != nil {
		t.Fatal(err)
	}
	drive(t, s, cr, 0)
	got := s.Result()
	if got.Asked != 10 || got.Orderings != 20 {
		t.Fatalf("asked/orderings = %d/%d, want 10/20", got.Asked, got.Orderings)
	}
	if want := []int{5, 3}; !slices.Equal(got.Ranking, want) {
		t.Fatalf("ranking %v, want %v", got.Ranking, want)
	}
	if want := 0.16600161355149115; math.Abs(got.Uncertainty-want) > 1e-9 {
		t.Fatalf("uncertainty = %v, want %v", got.Uncertainty, want)
	}
}

// TestSessionCheckpointRestoreMidQuery: a session checkpointed and restored
// after half its answers finishes with the same result as one that ran
// straight through — for a full-tree strategy and for incr, whose tree is
// only partially built at the checkpoint.
func TestSessionCheckpointRestoreMidQuery(t *testing.T) {
	for _, alg := range []string{AlgT1On, AlgIncr, AlgTBOff} {
		alg := alg
		t.Run(alg, func(t *testing.T) {
			ds := testDists(t, 7, 5)
			truth := crowd.SampleTruth(ds, rand.New(rand.NewSource(99)))
			const k, budget = 3, 12

			straight, err := New(Config{Dists: ds, K: k, Budget: budget, Algorithm: alg, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			drive(t, straight, &crowd.PerfectOracle{Truth: truth}, 0)
			want := straight.Result()

			s, err := New(Config{Dists: ds, K: k, Budget: budget, Algorithm: alg, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			cr := &crowd.PerfectOracle{Truth: truth}
			half := want.Asked / 2
			for s.Result().Asked < half && !s.State().Terminal() {
				qs, _, err := s.NextQuestions(1)
				if err != nil {
					t.Fatal(err)
				}
				if len(qs) == 0 {
					break
				}
				if err := s.SubmitAnswer(cr.Ask(qs[0])); err != nil {
					t.Fatal(err)
				}
			}

			var buf bytes.Buffer
			if err := s.Checkpoint(&buf); err != nil {
				t.Fatal(err)
			}
			restored, err := Restore(&buf, nil)
			if err != nil {
				t.Fatal(err)
			}
			if restored.Result().Asked != s.Result().Asked {
				t.Fatalf("restored asked = %d, want %d", restored.Result().Asked, s.Result().Asked)
			}
			drive(t, restored, cr, 0)
			got := restored.Result()

			if got.Asked != want.Asked || got.Orderings != want.Orderings || got.Resolved != want.Resolved {
				t.Fatalf("asked/orderings/resolved = %d/%d/%v, want %d/%d/%v",
					got.Asked, got.Orderings, got.Resolved, want.Asked, want.Orderings, want.Resolved)
			}
			for i := range got.Ranking {
				if got.Ranking[i] != want.Ranking[i] {
					t.Fatalf("ranking %v, want %v", got.Ranking, want.Ranking)
				}
			}
			if got.State != want.State {
				t.Fatalf("state = %s, want %s", got.State, want.State)
			}
		})
	}
}

// TestSessionStateMachine pins lifecycle transitions and the typed errors.
func TestSessionStateMachine(t *testing.T) {
	ds := testDists(t, 5, 2)
	truth := crowd.SampleTruth(ds, rand.New(rand.NewSource(12)))
	s, err := New(Config{Dists: ds, K: 2, Budget: 8})
	if err != nil {
		t.Fatal(err)
	}
	if s.State() != Created {
		t.Fatalf("initial state = %s, want %s", s.State(), Created)
	}
	// Unknown answers are rejected before any question is issued.
	if err := s.SubmitAnswer(tpo.Answer{Q: tpo.NewQuestion(0, 1), Yes: true}); !errors.Is(err, ErrUnknownQuestion) {
		// The first planned question might be (0,1); in that case pick a
		// question that is certainly not pending.
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	qs, _, err := s.NextQuestions(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 1 {
		t.Fatalf("NextQuestions = %v", qs)
	}
	if s.State() != AwaitingAnswers {
		t.Fatalf("state after delivery = %s, want %s", s.State(), AwaitingAnswers)
	}
	// Redelivery returns the same question.
	again, _, err := s.NextQuestions(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 1 || again[0] != qs[0] {
		t.Fatalf("redelivery %v, want %v", again, qs)
	}
	// Answers are accepted in either orientation of the pair.
	a := truth.Correct(qs[0])
	flipped := tpo.Answer{Q: tpo.Question{I: a.Q.J, J: a.Q.I}, Yes: !a.Yes}
	if err := s.SubmitAnswer(flipped); err != nil {
		t.Fatalf("flipped orientation rejected: %v", err)
	}
	// Answering the same question again fails typed.
	if err := s.SubmitAnswer(a); !errors.Is(err, ErrUnknownQuestion) {
		t.Fatalf("duplicate answer error = %v, want ErrUnknownQuestion", err)
	}
	drive(t, s, &crowd.PerfectOracle{Truth: truth}, 0)
	if !s.State().Terminal() {
		t.Fatalf("driven session not terminal: %s", s.State())
	}
	if err := s.SubmitAnswer(a); !errors.Is(err, ErrDone) {
		t.Fatalf("terminal submit error = %v, want ErrDone", err)
	}
	if qs, _, err := s.NextQuestions(5); err != nil || len(qs) != 0 {
		t.Fatalf("terminal NextQuestions = %v, %v", qs, err)
	}
}

// TestSessionZeroBudget: a session with nothing to ask is terminal at
// creation and still reports the prior belief.
func TestSessionZeroBudget(t *testing.T) {
	ds := testDists(t, 5, 2)
	s, err := New(Config{Dists: ds, K: 2, Budget: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !s.State().Terminal() {
		t.Fatalf("state = %s, want terminal", s.State())
	}
	res := s.Result()
	if res.Orderings < 1 || len(res.Ranking) == 0 {
		t.Fatalf("prior result unusable: %+v", res)
	}
}

// TestRestoreRejectsMismatches: schema, kind and digest corruption fail with
// typed errors instead of silently mis-resuming.
func TestRestoreRejectsMismatches(t *testing.T) {
	ds := testDists(t, 5, 2)
	s, err := New(Config{Dists: ds, K: 2, Budget: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.String()

	var mm *MismatchError
	if _, err := Restore(bytes.NewReader([]byte(`{"schema":1,"kind":"other"}`)), nil); !errors.As(err, &mm) || mm.Field != "kind" {
		t.Fatalf("kind mismatch = %v", err)
	}
	bad := bytes.Replace([]byte(good), []byte(`"schema":1`), []byte(`"schema":99`), 1)
	if _, err := Restore(bytes.NewReader(bad), nil); !errors.As(err, &mm) || mm.Field != "schema" {
		t.Fatalf("schema mismatch = %v", err)
	}
	bad = bytes.Replace([]byte(good), []byte(`"digest":"sha256:`), []byte(`"digest":"sha256:00`), 1)
	if _, err := Restore(bytes.NewReader(bad), nil); !errors.As(err, &mm) || mm.Field != "dataset digest" {
		t.Fatalf("digest mismatch = %v", err)
	}
}

// TestRestoreBoundsRNGReplay: a crafted checkpoint with an absurd RNG
// position is rejected with a typed error instead of spinning the CPU
// replaying up to 2^64 draws.
func TestRestoreBoundsRNGReplay(t *testing.T) {
	ds := testDists(t, 5, 2)
	s, err := New(Config{Dists: ds, K: 2, Budget: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	var env envelope
	if err := json.Unmarshal(buf.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	env.RNGDraws = math.MaxUint64
	b, err := json.Marshal(&env)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(bytes.NewReader(b), nil); !errors.Is(err, ErrInvalidCheckpoint) {
		t.Fatalf("excessive rng_draws = %v, want ErrInvalidCheckpoint", err)
	}
}

// TestValidateBoundsGrid: the build grid is checked before anything is
// sampled on it. None of these configurations may reach an allocation: the
// last one would sample 257 tuples on 65,536 points (270 MB of rows).
func TestValidateBoundsGrid(t *testing.T) {
	ds := testDists(t, 5, 2)
	wide := make([]dist.Distribution, 257)
	for i := range wide {
		wide[i] = ds[i%len(ds)]
	}
	for name, cfg := range map[string]Config{
		"negative grid":    {Dists: ds, K: 2, Budget: 4, Build: tpo.BuildOptions{GridSize: -1}},
		"grid over bound":  {Dists: ds, K: 2, Budget: 4, Build: tpo.BuildOptions{GridSize: maxGridSize + 1}},
		"samples over cap": {Dists: wide, K: 2, Budget: 4, Build: tpo.BuildOptions{GridSize: maxGridSize}},
		"negative epsilon": {Dists: ds, K: 2, Budget: 4, Build: tpo.BuildOptions{ProbEpsilon: -1e-9}},
	} {
		for _, start := range []func(Config) (*Session, error){New, NewTransient} {
			if _, err := start(cfg); !errors.Is(err, ErrInvalidConfig) {
				t.Errorf("%s: err = %v, want ErrInvalidConfig", name, err)
			}
		}
	}

	// The same bounds hold for a checkpoint's configuration.
	s, err := New(Config{Dists: ds, K: 2, Budget: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*configJSON){
		"grid over bound":  func(c *configJSON) { c.GridSize = maxGridSize + 1 },
		"negative epsilon": func(c *configJSON) { c.ProbEpsilon = -1 },
	} {
		var env envelope
		if err := json.Unmarshal(buf.Bytes(), &env); err != nil {
			t.Fatal(err)
		}
		mutate(&env.Config)
		b, err := json.Marshal(&env)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Restore(bytes.NewReader(b), nil); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("restore with %s: err = %v, want ErrInvalidConfig", name, err)
		}
	}
}

// TestRestoreRejectsPendingOverBudget: a crafted checkpoint whose pending
// list exceeds the remaining budget is rejected — otherwise the restored
// session would accept answers past Budget.
func TestRestoreRejectsPendingOverBudget(t *testing.T) {
	ds := testDists(t, 5, 2)
	s, err := New(Config{Dists: ds, K: 2, Budget: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	var env envelope
	if err := json.Unmarshal(buf.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	env.Pending = []pairJSON{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}} // 5 > budget 4
	b, err := json.Marshal(&env)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(bytes.NewReader(b), nil); !errors.Is(err, ErrInvalidCheckpoint) {
		t.Fatalf("pending over budget = %v, want ErrInvalidCheckpoint", err)
	}
}

// TestRestoreCanonicalizesAnswers: a checkpoint carrying answers in
// non-canonical (I > J) orientation restores them flipped along with the
// pair — mirroring SubmitAnswer — so the restored answer log keeps the same
// semantics instead of silently inverting.
func TestRestoreCanonicalizesAnswers(t *testing.T) {
	ds := testDists(t, 5, 2)
	truth := crowd.SampleTruth(ds, rand.New(rand.NewSource(12)))
	s, err := New(Config{Dists: ds, K: 2, Budget: 4})
	if err != nil {
		t.Fatal(err)
	}
	qs, _, err := s.NextQuestions(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) == 0 {
		t.Fatal("no questions planned")
	}
	for _, q := range qs {
		if err := s.SubmitAnswer(truth.Correct(q)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	var env envelope
	if err := json.Unmarshal(buf.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if len(env.Answers) == 0 {
		t.Fatal("checkpoint carries no answers")
	}
	// Rewrite each answer in the opposite orientation with the same
	// semantics: (j, i, !yes) states the same fact as (i, j, yes).
	for i, a := range env.Answers {
		env.Answers[i] = answerJSON{I: a.J, J: a.I, Yes: !a.Yes}
	}
	b, err := json.Marshal(&env)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(bytes.NewReader(b), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(restored.answers) != len(s.answers) {
		t.Fatalf("restored %d answers, want %d", len(restored.answers), len(s.answers))
	}
	for i := range s.answers {
		if restored.answers[i] != s.answers[i] {
			t.Fatalf("answer %d = %+v, want %+v", i, restored.answers[i], s.answers[i])
		}
	}
}

// TestSessionSharedPool: sessions created concurrently against one worker
// budget complete correctly (run under -race this also pins the pool's
// concurrency safety).
func TestSessionSharedPool(t *testing.T) {
	pool := par.NewBudget(2)
	var wg sync.WaitGroup
	errs := make([]error, 4)
	results := make([]*Result, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ds, err := dataset.Generate(dataset.Spec{N: 6, Width: 2.0, Seed: int64(i + 1)})
			if err != nil {
				errs[i] = err
				return
			}
			truth := crowd.SampleTruth(ds, rand.New(rand.NewSource(int64(i))))
			s, err := New(Config{Dists: ds, K: 2, Budget: 6, Algorithm: AlgIncr, Pool: pool})
			if err != nil {
				errs[i] = err
				return
			}
			cr := &crowd.PerfectOracle{Truth: truth}
			for {
				qs, _, err := s.NextQuestions(0)
				if err != nil {
					errs[i] = err
					return
				}
				if len(qs) == 0 {
					break
				}
				for _, q := range qs {
					if err := s.SubmitAnswer(cr.Ask(q)); err != nil {
						errs[i] = err
						return
					}
				}
			}
			results[i] = s.Result()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		if results[i] == nil || !results[i].State.Terminal() {
			t.Fatalf("session %d did not terminate: %+v", i, results[i])
		}
	}
}

// TestBranchEpsilonReachesEverySweep: Config.BranchEpsilon is the ε of every
// selection context the session builds — the offline batch, the online
// step and the incr round. Each first plan must match the strategy run
// directly with that ε, and differ from the default-ε plan (so the check
// is not vacuous).
func TestBranchEpsilonReachesEverySweep(t *testing.T) {
	ds := testDists(t, 7, 5)
	const k, budget, eps = 3, 4, 0.15
	plan := func(t *testing.T, alg string, eps float64) []tpo.Question {
		t.Helper()
		build := tpo.Build
		if alg == AlgIncr {
			build = tpo.StartIncremental
		}
		tree, err := build(ds, k, tpo.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ctx := &selection.Context{Tree: tree, Measure: uncertainty.Entropy{}, BranchEpsilon: eps}
		switch alg {
		case AlgIncr:
			qs, _, _, err := planIncrRound(tree, k, 5, budget, ctx)
			if err != nil {
				t.Fatal(err)
			}
			return qs
		case AlgT1On:
			q, _, err := selection.T1On{}.NextQuestion(tree.LeafSet(), budget, ctx)
			if err != nil {
				t.Fatal(err)
			}
			return []tpo.Question{q}
		default:
			strat, err := offlineStrategy(alg, nil)
			if err != nil {
				t.Fatal(err)
			}
			qs, err := strat.SelectBatch(tree.LeafSet(), budget, ctx)
			if err != nil {
				t.Fatal(err)
			}
			return qs
		}
	}
	for _, alg := range []string{AlgTBOff, AlgCOff, AlgT1On, AlgIncr} {
		t.Run(alg, func(t *testing.T) {
			s, err := New(Config{Dists: ds, K: k, Budget: budget, Algorithm: alg, Measure: "H", BranchEpsilon: eps})
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := s.NextQuestions(0)
			if err != nil {
				t.Fatal(err)
			}
			want := plan(t, alg, eps)
			if !slices.Equal(got, want) {
				t.Fatalf("session plans %v, ε=%g strategy plans %v", got, eps, want)
			}
			if def := plan(t, alg, 0); slices.Equal(def, want) {
				t.Fatalf("default ε plans the same %v; the check is vacuous", def)
			}
		})
	}
}
