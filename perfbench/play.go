package main

import (
	"errors"
	"fmt"
	"net/http"

	"crowdtopk/internal/rank"
	"crowdtopk/internal/tpo"
)

// backend is one rung of the stack a session can be driven through: HTTP
// against the serve binary, the service core, the session package, or the
// primitives the session calls. Every rung must ask the same questions and
// reach the same ranking for the same input.
type backend interface {
	create(in *sessionInput) (id string, err error)
	// questions returns the pending questions, the lifecycle state and the
	// answers accepted so far. On restart its first call hydrates.
	questions(id string) (qs []tpo.Question, state string, asked int, err error)
	// answers submits one batch and returns the answers accepted so far.
	answers(id string, as []tpo.Answer) (asked int, err error)
	result(id string) (ranking []int, state string, asked int, err error)
	remove(id string) error
}

// recorder times one route call: begin returns the function that ends it,
// told whether the call succeeded.
type recorder func(route string) func(ok bool)

// outcome is what one session did, for the checks and the quality metric.
type outcome struct {
	questions []tpo.Question
	ranking   []int
	distance  float64
	ops       int
	failed    int
}

var errCheck = errors.New("check failed")

func checkf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errCheck, fmt.Sprintf(format, args...))
}

func terminal(state string) bool { return state == "converged" || state == "exhausted" }

// play runs one session lifecycle — create (or, on restart, hydrate by first
// touch), questions and answers until the session is terminal, result,
// delete — checking every reply. It stops at the first failed operation.
func play(b backend, in *sessionInput, rec recorder) (outcome, error) {
	var out outcome
	step := func(route string, f func() error) error {
		out.ops++
		done := rec(route)
		err := f()
		done(err == nil)
		if err != nil {
			out.failed++
			return fmt.Errorf("session %d %s: %w", in.idx, route, err)
		}
		return nil
	}
	id := in.fillID
	if id == "" {
		if err := step("create", func() (err error) { id, err = b.create(in); return err }); err != nil {
			return out, err
		}
	}
	route, asked := "questions", in.fillAsked
	if in.fillID != "" {
		route = "hydrate"
	}
	for {
		var qs []tpo.Question
		var state string
		err := step(route, func() error {
			var got int
			var err error
			qs, state, got, err = b.questions(id)
			switch {
			case err != nil:
				return err
			case got != asked:
				return checkf("asked %d, want %d", got, asked)
			case !terminal(state) && len(qs) == 0:
				return checkf("state %s with no questions", state)
			}
			return nil
		})
		if err != nil {
			return out, err
		}
		route = "questions"
		if terminal(state) {
			break
		}
		as := make([]tpo.Answer, len(qs))
		for i, q := range qs {
			as[i] = in.answer(q)
		}
		out.questions = append(out.questions, qs...)
		err = step("answers", func() error {
			got, err := b.answers(id, as)
			if err == nil && got != asked+len(as) {
				return checkf("asked %d after %d answers, want %d", got, len(as), asked+len(as))
			}
			return err
		})
		if err != nil {
			return out, err
		}
		asked += len(as)
	}
	err := step("result", func() error {
		ranking, state, got, err := b.result(id)
		if err != nil {
			return err
		}
		out.ranking = ranking
		return checkResult(in, ranking, state, got, asked)
	})
	if err != nil {
		return out, err
	}
	if err := step("delete", func() error { return b.remove(id) }); err != nil {
		return out, err
	}
	out.distance = rank.KendallTopKNormalized(rank.Ordering(out.ranking), in.truth.TopK(in.k), kendallPenalty)
	return out, nil
}

// checkResult: the session ended terminal within budget, and its ranking is
// K distinct tuple ids in [0, N).
func checkResult(in *sessionInput, ranking []int, state string, asked, want int) error {
	if !terminal(state) {
		return checkf("result state %s is not terminal", state)
	}
	if asked != want || asked > budget {
		return checkf("result asked %d, want %d within budget %d", asked, want, budget)
	}
	if len(ranking) != in.k {
		return checkf("ranking %v has %d ids, want %d", ranking, len(ranking), in.k)
	}
	seen := map[int]bool{}
	for _, id := range ranking {
		if id < 0 || id >= in.n || seen[id] {
			return checkf("ranking %v: bad or repeated id %d", ranking, id)
		}
		seen[id] = true
	}
	return nil
}

// httpBackend drives the serve binary's v1 routes.
type httpBackend struct{ c *httpClient }

func (b httpBackend) create(in *sessionInput) (string, error) {
	var r createReply
	body := createBody{Tuples: in.specs, K: in.k, Budget: budget, Algorithm: algorithm, Measure: measure}
	if err := b.c.call("POST", "/v1/sessions", body, http.StatusCreated, &r, createFields); err != nil {
		return "", err
	}
	if r.ID == "" || r.Tuples != in.n || r.Budget != budget || r.Asked != 0 {
		return "", checkf("create reply %+v", r)
	}
	return r.ID, nil
}

func (b httpBackend) questions(id string) ([]tpo.Question, string, int, error) {
	var r questionsReply
	if err := b.c.call("GET", "/v1/sessions/"+id+"/questions", nil, http.StatusOK, &r, questionsFields); err != nil {
		return nil, "", 0, err
	}
	qs := make([]tpo.Question, len(r.Questions))
	for i, q := range r.Questions {
		if q.Prompt == "" {
			return nil, "", 0, checkf("question %d has no prompt", i)
		}
		qs[i] = tpo.Question{I: q.I, J: q.J}
	}
	return qs, r.State, r.Asked, nil
}

func (b httpBackend) answers(id string, as []tpo.Answer) (int, error) {
	body := answersBody{Answers: make([]wireAnswer, len(as))}
	for i, a := range as {
		body.Answers[i] = wireAnswer{I: a.Q.I, J: a.Q.J, Yes: a.Yes}
	}
	var r answersReply
	if err := b.c.call("POST", "/v1/sessions/"+id+"/answers", body, http.StatusOK, &r, answersFields); err != nil {
		return 0, err
	}
	if r.Accepted != len(as) {
		return 0, checkf("accepted %d of %d answers", r.Accepted, len(as))
	}
	return r.Asked, nil
}

func (b httpBackend) result(id string) ([]int, string, int, error) {
	var r resultReply
	if err := b.c.call("GET", "/v1/sessions/"+id+"/result", nil, http.StatusOK, &r, resultFields); err != nil {
		return nil, "", 0, err
	}
	if len(r.Names) != len(r.Ranking) {
		return nil, "", 0, checkf("%d names for %d ranked ids", len(r.Names), len(r.Ranking))
	}
	return r.Ranking, r.State, r.Asked, nil
}

func (b httpBackend) remove(id string) error {
	return b.c.call("DELETE", "/v1/sessions/"+id, nil, http.StatusNoContent, nil, nil)
}
