package session

import (
	"math"
	"math/rand"
	"testing"

	"crowdtopk/internal/selection"
	"crowdtopk/internal/tpo"
	"crowdtopk/internal/uncertainty"
)

// These tests pin that the session's live-engine path stays in lockstep with
// the raw answer transitions at every step — not just in the final result —
// under the updates the engine reconciles with: noisy reweighting
// (including answers against the current evidence) and trusted prunes with
// absorbed contradictions.

// TestNoisyLockstepEngineVsSession drives a noisy-reliability T1-on session
// with seeded random answers while mirroring every transition through
// applyAnswer on a twin tree with a stateless selection context. The
// session (live arena, reconciled with each reweighted leaf set) and the
// mirror (fresh engine per step) must ask the same question at every step
// and end in the same belief.
func TestNoisyLockstepEngineVsSession(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		ds := testDists(t, 6, 40+seed)
		const k, budget = 3, 10
		const rel = 0.85
		s, err := New(Config{Dists: ds, K: k, Budget: budget, Algorithm: AlgT1On, Measure: "H", Reliability: rel, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		mirror, err := tpo.Build(ds, k, tpo.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		m := uncertainty.Entropy{}
		rng := rand.New(rand.NewSource(seed))
		for step := 0; ; step++ {
			qs, _, err := s.NextQuestions(1)
			if err != nil {
				t.Fatal(err)
			}
			if len(qs) == 0 {
				if !s.State().Terminal() {
					t.Fatalf("seed %d: no questions in non-terminal state %s", seed, s.State())
				}
				break
			}
			wantQ, ok, err := (selection.T1On{}).NextQuestion(mirror.LeafSet(), budget, &selection.Context{Tree: mirror, Measure: m})
			if err != nil {
				t.Fatal(err)
			}
			if !ok || qs[0] != wantQ {
				t.Fatalf("seed %d step %d: session asks %v, stateless path asks %v (ok=%v)", seed, step, qs[0], wantQ, ok)
			}
			// Random side: roughly a third of the answers go against the
			// currently heavier branch, so the Bayesian update re-raises
			// down-weighted leaves the session's arena already holds.
			a := tpo.Answer{Q: qs[0], Yes: rng.Intn(3) != 0}
			if err := s.SubmitAnswer(a); err != nil {
				t.Fatal(err)
			}
			if _, err := applyAnswer(mirror, a, rel); err != nil {
				t.Fatal(err)
			}
			if step > 3*budget {
				t.Fatalf("seed %d: session did not terminate", seed)
			}
		}
		got := s.Result()
		ls := mirror.LeafSet()
		if got.Orderings != ls.Len() {
			t.Fatalf("seed %d: session holds %d orderings, mirror %d", seed, got.Orderings, ls.Len())
		}
		if want := m.Value(ls); math.Abs(got.Uncertainty-want) > 1e-12 {
			t.Fatalf("seed %d: uncertainty %v, mirror %v", seed, got.Uncertainty, want)
		}
		wantRank := uncertainty.Representative(s.measure, ls)
		if len(got.Ranking) != len(wantRank) {
			t.Fatalf("seed %d: ranking %v, mirror %v", seed, got.Ranking, wantRank)
		}
		for i := range wantRank {
			if got.Ranking[i] != wantRank[i] {
				t.Fatalf("seed %d: ranking %v, mirror %v", seed, got.Ranking, wantRank)
			}
		}
	}
}

// TestTrustedContradictionLockstep stresses absorbed contradictions while
// the live arena lags the tree: an offline TB-off batch is committed up
// front, random trusted answers prune as they land, and later questions in
// the batch can contradict every remaining ordering. The session must absorb
// exactly the contradictions the answer transition reports and keep its
// belief identical to the mirrored tree.
func TestTrustedContradictionLockstep(t *testing.T) {
	sawContradiction := false
	for seed := int64(0); seed < 6; seed++ {
		ds := testDists(t, 6, 60+seed)
		const k, budget = 3, 8
		s, err := New(Config{Dists: ds, K: k, Budget: budget, Algorithm: AlgTBOff, Measure: "H", Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		mirror, err := tpo.Build(ds, k, tpo.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		qs, _, err := s.NextQuestions(0)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		contra := 0
		for _, q := range qs {
			a := tpo.Answer{Q: q, Yes: rng.Intn(2) == 0}
			if err := s.SubmitAnswer(a); err != nil {
				t.Fatal(err)
			}
			contradicted, err := applyAnswer(mirror, a, 1)
			if err != nil {
				t.Fatal(err)
			}
			if contradicted {
				contra++
			}
			if got, want := s.Orderings(), mirror.NumLeaves(); got != want {
				t.Fatalf("seed %d after %v: session holds %d orderings, mirror %d", seed, a, got, want)
			}
		}
		if st := s.Status(); st.Contradictions != contra {
			t.Fatalf("seed %d: session absorbed %d contradictions, mirror %d", seed, st.Contradictions, contra)
		}
		sawContradiction = sawContradiction || contra > 0
		got := s.Result()
		ls := mirror.LeafSet()
		m := uncertainty.Entropy{}
		if got.Orderings != ls.Len() || math.Abs(got.Uncertainty-m.Value(ls)) > 1e-12 {
			t.Fatalf("seed %d: result (%d, %v) diverged from mirror (%d, %v)",
				seed, got.Orderings, got.Uncertainty, ls.Len(), m.Value(ls))
		}
	}
	if !sawContradiction {
		t.Fatal("no seed produced an absorbed contradiction; widen the seed range")
	}
}
