package crowdtopk_test

import (
	"bytes"
	"errors"
	"testing"

	crowdtopk "crowdtopk"
	"crowdtopk/internal/session"
)

func sessionWorkload(t *testing.T) *crowdtopk.Dataset {
	t.Helper()
	scores := []crowdtopk.Uncertain{
		crowdtopk.UniformScore(1.0, 1.6),
		crowdtopk.UniformScore(1.3, 1.6),
		crowdtopk.UniformScore(1.6, 1.6),
		crowdtopk.UniformScore(1.9, 1.6),
		crowdtopk.UniformScore(2.2, 1.6),
		crowdtopk.UniformScore(2.5, 1.6),
	}
	ds, err := crowdtopk.NewDataset(scores)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestSessionMatchesProcess: the asynchronous public API driven to
// completion returns the result the synchronous Process call computes for
// the same workload, seed and crowd.
func TestSessionMatchesProcess(t *testing.T) {
	ds := sessionWorkload(t)
	query := crowdtopk.Query{K: 3, Budget: 30, Seed: 42}
	cr, _, err := crowdtopk.SimulatedCrowd(ds, 1, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	want, err := crowdtopk.Process(ds, query, cr)
	if err != nil {
		t.Fatal(err)
	}

	sess, err := crowdtopk.NewSession(ds, query, 1)
	if err != nil {
		t.Fatal(err)
	}
	apiCrowd, _, err := crowdtopk.SimulatedCrowd(ds, 1, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	if sess.State() != crowdtopk.SessionCreated {
		t.Fatalf("state = %s, want %s", sess.State(), crowdtopk.SessionCreated)
	}
	for !sess.State().Terminal() {
		qs, err := sess.NextQuestions(1)
		if err != nil {
			t.Fatal(err)
		}
		if len(qs) == 0 {
			break
		}
		if err := sess.SubmitAnswer(apiCrowd.Ask(qs[0])); err != nil {
			t.Fatal(err)
		}
	}
	got := sess.Result()
	if got.QuestionsAsked != want.QuestionsAsked || got.Resolved != want.Resolved || got.Orderings != want.Orderings {
		t.Fatalf("asked/resolved/orderings = %d/%v/%d, want %d/%v/%d",
			got.QuestionsAsked, got.Resolved, got.Orderings, want.QuestionsAsked, want.Resolved, want.Orderings)
	}
	for i := range want.Ranking {
		if got.Ranking[i] != want.Ranking[i] {
			t.Fatalf("ranking %v, want %v", got.Ranking, want.Ranking)
		}
		if got.Names[i] != want.Names[i] {
			t.Fatalf("names %v, want %v", got.Names, want.Names)
		}
	}
}

// TestSessionCheckpointPublic: the public checkpoint/restore round-trips a
// half-answered session and finishes with the straight-through result.
func TestSessionCheckpointPublic(t *testing.T) {
	ds := sessionWorkload(t)
	query := crowdtopk.Query{K: 3, Budget: 30, Seed: 42}
	cr, _, err := crowdtopk.SimulatedCrowd(ds, 1, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	want, err := crowdtopk.Process(ds, query, cr)
	if err != nil {
		t.Fatal(err)
	}

	sess, err := crowdtopk.NewSession(ds, query, 1)
	if err != nil {
		t.Fatal(err)
	}
	apiCrowd, _, err := crowdtopk.SimulatedCrowd(ds, 1, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		qs, err := sess.NextQuestions(1)
		if err != nil || len(qs) == 0 {
			t.Fatalf("questions: %v %v", qs, err)
		}
		if err := sess.SubmitAnswer(apiCrowd.Ask(qs[0])); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := sess.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := crowdtopk.RestoreSession(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for !restored.State().Terminal() {
		qs, err := restored.NextQuestions(1)
		if err != nil {
			t.Fatal(err)
		}
		if len(qs) == 0 {
			break
		}
		if err := restored.SubmitAnswer(apiCrowd.Ask(qs[0])); err != nil {
			t.Fatal(err)
		}
	}
	got := restored.Result()
	if got.QuestionsAsked != want.QuestionsAsked {
		t.Fatalf("asked = %d, want %d", got.QuestionsAsked, want.QuestionsAsked)
	}
	for i := range want.Ranking {
		if got.Ranking[i] != want.Ranking[i] {
			t.Fatalf("ranking %v, want %v", got.Ranking, want.Ranking)
		}
	}

	// Terminal sessions refuse answers with the typed sentinel.
	err = restored.SubmitAnswer(crowdtopk.Answer{Q: crowdtopk.Question{I: 0, J: 1}, Yes: true})
	if !errors.Is(err, crowdtopk.ErrSessionDone) {
		t.Fatalf("terminal submit error = %v, want ErrSessionDone", err)
	}
}

// TestSessionUnknownQuestion: answers to unissued questions are rejected
// with the typed sentinel.
func TestSessionUnknownQuestion(t *testing.T) {
	ds := sessionWorkload(t)
	sess, err := crowdtopk.NewSession(ds, crowdtopk.Query{K: 2, Budget: 5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := sess.NextQuestions(1)
	if err != nil || len(qs) != 1 {
		t.Fatalf("questions: %v %v", qs, err)
	}
	// Pick a pair that is not the pending question.
	bad := crowdtopk.Question{I: 0, J: 1}
	if bad == qs[0] {
		bad = crowdtopk.Question{I: 0, J: 2}
		if bad == qs[0] {
			bad = crowdtopk.Question{I: 1, J: 2}
		}
	}
	err = sess.SubmitAnswer(crowdtopk.Answer{Q: bad, Yes: true})
	if !errors.Is(err, crowdtopk.ErrUnknownQuestion) {
		t.Fatalf("unissued answer error = %v, want ErrUnknownQuestion", err)
	}
}

// conditionedGaussians returns a dataset whose scores have no wire form:
// conditioning Gaussian scores on an answer truncates them.
func conditionedGaussians(t *testing.T) *crowdtopk.Dataset {
	t.Helper()
	ds, err := crowdtopk.NewDataset([]crowdtopk.Uncertain{
		crowdtopk.GaussianScore(1.0, 0.5),
		crowdtopk.GaussianScore(1.3, 0.5),
		crowdtopk.GaussianScore(1.6, 0.5),
		crowdtopk.GaussianScore(1.9, 0.5),
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ds.Conditioned(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// TestDatasetWithoutWireForm: Process answers a query on a dataset with no
// wire form — its session never leaves the process — while NewSession,
// whose sessions must checkpoint, rejects the dataset up front.
func TestDatasetWithoutWireForm(t *testing.T) {
	ds := conditionedGaussians(t)
	query := crowdtopk.Query{K: 2, Budget: 4, Seed: 5}
	cr, _, err := crowdtopk.SimulatedCrowd(ds, 1, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := crowdtopk.Process(ds, query, cr)
	if err != nil {
		t.Fatalf("Process on a dataset without wire form: %v", err)
	}
	if len(res.Ranking) != query.K || res.QuestionsAsked == 0 {
		t.Fatalf("Process result %+v", res)
	}
	if _, err := crowdtopk.NewSession(ds, query, 1); !errors.Is(err, session.ErrInvalidConfig) {
		t.Fatalf("NewSession on a dataset without wire form: %v, want ErrInvalidConfig", err)
	}
}
