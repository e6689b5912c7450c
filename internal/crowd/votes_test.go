package crowd

import (
	"math"
	"math/rand"
	"testing"

	"crowdtopk/internal/tpo"
)

// TestEvenVotesRoundedUpToOdd is the regression test for the even-votes
// bias: Ask used to collect an even panel and silently resolve ties as "No"
// (yes*2 > votes), while Reliability() modelled an odd panel via
// MajorityAccuracy — so the Bayesian reweighting used a reliability the
// platform did not deliver. Both now round through effectiveVotes: an even
// Votes setting convenes one extra worker, a majority always exists, and
// Reliability describes the panel Ask actually uses.
func TestEvenVotesRoundedUpToOdd(t *testing.T) {
	truth := TruthFromScores([]float64{2, 1})
	rng := rand.New(rand.NewSource(1))
	pf, err := NewUniformPlatform(truth, 8, 0.7, rng)
	if err != nil {
		t.Fatal(err)
	}
	pf.Votes = 4 // even: must behave exactly like 5

	if got, want := pf.Reliability(), MajorityAccuracy(pf.MeanAccuracy(), 5); got != want {
		t.Errorf("Reliability with Votes=4 = %v, want the 5-vote majority accuracy %v", got, want)
	}
	pf.Ask(tpo.NewQuestion(0, 1))
	// The old code collected exactly Votes (4) answers; the fixed platform
	// convenes the odd panel its reliability claims.
	if got := pf.WorkerAnswers(); got != 5 {
		t.Errorf("one Ask with Votes=4 collected %d worker answers, want 5", got)
	}
}

// TestVotesFloor: non-positive vote counts behave as a single answer in both
// Ask and Reliability.
func TestVotesFloor(t *testing.T) {
	truth := TruthFromScores([]float64{2, 1})
	rng := rand.New(rand.NewSource(2))
	pf, err := NewUniformPlatform(truth, 4, 0.9, rng)
	if err != nil {
		t.Fatal(err)
	}
	pf.Votes = 0
	if got := pf.Reliability(); math.Abs(got-0.9) > 1e-15 {
		t.Errorf("Reliability with Votes=0 = %v, want single-worker accuracy 0.9", got)
	}
	pf.Ask(tpo.NewQuestion(0, 1))
	if got := pf.WorkerAnswers(); got != 1 {
		t.Errorf("one Ask with Votes=0 collected %d worker answers, want 1", got)
	}
}

// TestEvenVotesNeverTie: with the odd panel, aggregate answers are decided
// by a strict majority — over many asks of an even-Votes platform with
// mediocre workers, the answer distribution must match what MajorityAccuracy
// predicts for the rounded panel (a tie-biased platform undershoots this
// badly, because every 2-2 split used to collapse to "No").
func TestEvenVotesNeverTie(t *testing.T) {
	truth := TruthFromScores([]float64{2, 1})
	rng := rand.New(rand.NewSource(3))
	pf, err := NewUniformPlatform(truth, 16, 0.7, rng)
	if err != nil {
		t.Fatal(err)
	}
	pf.Votes = 2 // behaves as 3
	q := tpo.NewQuestion(0, 1)
	const asks = 4000
	correct := 0
	for i := 0; i < asks; i++ {
		if pf.Ask(q).Yes == truth.Correct(q).Yes {
			correct++
		}
	}
	got := float64(correct) / asks
	want := MajorityAccuracy(0.7, 3) // 0.784
	// Old behavior: P(correct) = P(both right) = 0.49 — over 40σ away.
	if math.Abs(got-want) > 0.03 {
		t.Errorf("empirical majority accuracy %v, want ≈%v (Votes=2 rounded to 3)", got, want)
	}
	if got := pf.WorkerAnswers(); got != asks*3 {
		t.Errorf("worker answers = %d, want %d", got, asks*3)
	}
}
