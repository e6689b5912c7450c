package crowd

import (
	"math"
	"math/rand"
	"testing"

	"crowdtopk/internal/dist"
	"crowdtopk/internal/numeric"
	"crowdtopk/internal/rank"
	"crowdtopk/internal/tpo"
)

func TestTruthFromScoresOrdering(t *testing.T) {
	g := TruthFromScores([]float64{0.3, 0.9, 0.1, 0.9})
	// Scores: t1 = t3 = 0.9 (tie broken by id), t0 = 0.3, t2 = 0.1.
	want := rank.Ordering{1, 3, 0, 2}
	if !g.Real.Equal(want) {
		t.Fatalf("real ordering = %v, want %v", g.Real, want)
	}
	if got := g.TopK(2); !got.Equal(rank.Ordering{1, 3}) {
		t.Fatalf("TopK(2) = %v", got)
	}
}

func TestCorrectAnswers(t *testing.T) {
	g := TruthFromScores([]float64{0.2, 0.8})
	a := g.Correct(tpo.NewQuestion(0, 1))
	if a.Higher() != 1 {
		t.Fatalf("correct answer ranks %d higher, want 1", a.Higher())
	}
	// Tie: broken by lower id.
	g2 := TruthFromScores([]float64{0.5, 0.5})
	if a := g2.Correct(tpo.NewQuestion(0, 1)); a.Higher() != 0 {
		t.Fatalf("tie answer ranks %d higher, want 0", a.Higher())
	}
}

func TestSampleTruthWithinSupports(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ds := make([]dist.Distribution, 4)
	for i := range ds {
		u, err := dist.NewUniformAround(float64(i), 0.5)
		if err != nil {
			t.Fatal(err)
		}
		ds[i] = u
	}
	for trial := 0; trial < 50; trial++ {
		g := SampleTruth(ds, rng)
		for i, s := range g.Scores {
			lo, hi := ds[i].Support()
			if s < lo || s > hi {
				t.Fatalf("score %d = %g outside [%g, %g]", i, s, lo, hi)
			}
		}
		if len(g.Real) != 4 {
			t.Fatalf("real ordering size %d", len(g.Real))
		}
	}
}

func TestPerfectWorkerAlwaysCorrect(t *testing.T) {
	g := TruthFromScores([]float64{3, 1, 2})
	w, err := NewWorker("w", 1, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		q := tpo.NewQuestion(i%3, (i+1)%3)
		if got, want := w.Answer(g, q), g.Correct(q); got.Yes != want.Yes {
			t.Fatalf("perfect worker answered %v, truth %v", got, want)
		}
	}
}

func TestNoisyWorkerErrorRate(t *testing.T) {
	g := TruthFromScores([]float64{3, 1})
	rng := rand.New(rand.NewSource(3))
	w, err := NewWorker("w", 0.7, rng)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20_000
	correct := 0
	q := tpo.NewQuestion(0, 1)
	truth := g.Correct(q)
	for i := 0; i < n; i++ {
		if w.Answer(g, q).Yes == truth.Yes {
			correct++
		}
	}
	got := float64(correct) / n
	if math.Abs(got-0.7) > 0.02 {
		t.Fatalf("empirical accuracy %g, want ≈0.7", got)
	}
}

func TestNewWorkerValidation(t *testing.T) {
	for _, acc := range []float64{0, -1, 1.01} {
		if _, err := NewWorker("w", acc, nil); err == nil {
			t.Errorf("accuracy %g accepted", acc)
		}
	}
}

func TestPlatformAccounting(t *testing.T) {
	g := TruthFromScores([]float64{1, 2, 3})
	rng := rand.New(rand.NewSource(4))
	p, err := NewUniformPlatform(g, 5, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		p.Ask(tpo.NewQuestion(0, 1))
	}
	if p.WorkerAnswers() != 6 {
		t.Fatalf("worker answers = %d", p.WorkerAnswers())
	}
}

func TestPlatformMajorityVotingBoostsAccuracy(t *testing.T) {
	g := TruthFromScores([]float64{1, 2})
	q := tpo.NewQuestion(0, 1)
	truth := g.Correct(q)
	const trials = 10_000

	single := 0
	rng := rand.New(rand.NewSource(5))
	p1, err := NewUniformPlatform(g, 7, 0.7, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < trials; i++ {
		if p1.Ask(q).Yes == truth.Yes {
			single++
		}
	}

	voted := 0
	p3, err := NewUniformPlatform(g, 7, 0.7, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	p3.Votes = 3
	for i := 0; i < trials; i++ {
		if p3.Ask(q).Yes == truth.Yes {
			voted++
		}
	}
	fs, fv := float64(single)/trials, float64(voted)/trials
	if fv <= fs {
		t.Fatalf("3-vote majority accuracy %g not above single %g", fv, fs)
	}
	// Analytic: 0.7³ terms — majority of 3 at p=0.7 is 0.784.
	want := MajorityAccuracy(0.7, 3)
	if math.Abs(fv-want) > 0.02 {
		t.Fatalf("empirical majority accuracy %g vs analytic %g", fv, want)
	}
	if p3.WorkerAnswers() != 3*trials {
		t.Fatalf("worker answers = %d, want %d", p3.WorkerAnswers(), 3*trials)
	}
}

func TestMajorityAccuracy(t *testing.T) {
	cases := []struct {
		p     float64
		votes int
		want  float64
	}{
		{0.7, 1, 0.7},
		{0.7, 3, 0.7*0.7*0.7 + 3*0.7*0.7*0.3},
		{0.5, 5, 0.5},
		{1, 5, 1},
		{0.9, 2, MajorityAccuracy(0.9, 3)}, // even votes round up
	}
	for _, c := range cases {
		if got := MajorityAccuracy(c.p, c.votes); !numeric.AlmostEqual(got, c.want, 1e-9) {
			t.Errorf("MajorityAccuracy(%g, %d) = %g, want %g", c.p, c.votes, got, c.want)
		}
	}
}

func TestPlatformReliability(t *testing.T) {
	g := TruthFromScores([]float64{1, 2})
	p, err := NewUniformPlatform(g, 3, 0.8, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Reliability(); !numeric.AlmostEqual(got, 0.8, 1e-12) {
		t.Fatalf("reliability = %g", got)
	}
	p.Votes = 3
	if got := p.Reliability(); !numeric.AlmostEqual(got, MajorityAccuracy(0.8, 3), 1e-12) {
		t.Fatalf("3-vote reliability = %g", got)
	}
}

func TestPerfectOracle(t *testing.T) {
	g := TruthFromScores([]float64{1, 3, 2})
	o := &PerfectOracle{Truth: g}
	if o.Reliability() != 1 {
		t.Fatal("oracle reliability must be 1")
	}
	a := o.Ask(tpo.NewQuestion(1, 2))
	if a.Higher() != 1 {
		t.Fatalf("oracle ranked %d higher", a.Higher())
	}
	if o.Asked() != 1 {
		t.Fatalf("asked = %d", o.Asked())
	}
}

func TestDistanceMetric(t *testing.T) {
	g := TruthFromScores([]float64{3, 2, 1}) // real: 0,1,2
	exact := &tpo.LeafSet{K: 3, Paths: []rank.Ordering{{0, 1, 2}}, W: []float64{1}}
	if d := g.Distance(exact, 0); d != 0 {
		t.Fatalf("distance of the real ordering = %g", d)
	}
	// Reversal of the same 3-element set: 3 discordant pairs over the
	// disjoint-list maximum 3·3 + ½·6 = 12 → 0.25. (Distance 1 requires
	// disjoint top-K sets.)
	reversed := &tpo.LeafSet{K: 3, Paths: []rank.Ordering{{2, 1, 0}}, W: []float64{1}}
	if d := g.Distance(reversed, 0); !numeric.AlmostEqual(d, 0.25, 1e-12) {
		t.Fatalf("distance of the reversed ordering = %g, want 0.25", d)
	}
	mixed := &tpo.LeafSet{
		K:     3,
		Paths: []rank.Ordering{{0, 1, 2}, {2, 1, 0}},
		W:     []float64{0.5, 0.5},
	}
	if d := g.Distance(mixed, 0); !numeric.AlmostEqual(d, 0.125, 1e-12) {
		t.Fatalf("mixed distance = %g, want 0.125", d)
	}
	// Fully disjoint top-K set attains the maximum.
	disjoint := &tpo.LeafSet{K: 3, Paths: []rank.Ordering{{3, 4, 5}}, W: []float64{1}}
	g6 := TruthFromScores([]float64{6, 5, 4, 3, 2, 1})
	if d := g6.Distance(disjoint, 0); !numeric.AlmostEqual(d, 1, 1e-12) {
		t.Fatalf("disjoint distance = %g, want 1", d)
	}
}

func TestPlatformValidation(t *testing.T) {
	if _, err := NewPlatform(nil, nil, nil); err == nil {
		t.Fatal("platform without world/workers accepted")
	}
}
