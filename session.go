package crowdtopk

import (
	"fmt"
	"io"

	"crowdtopk/internal/session"
	"crowdtopk/internal/tpo"
)

// SessionState is a session lifecycle phase.
type SessionState string

// Session states. Converged and Exhausted are terminal: the session will
// accept no further answers.
const (
	SessionCreated         SessionState = SessionState(session.Created)
	SessionAwaitingAnswers SessionState = SessionState(session.AwaitingAnswers)
	SessionConverged       SessionState = SessionState(session.Converged)
	SessionExhausted       SessionState = SessionState(session.Exhausted)
)

// Terminal reports whether the session will accept no further answers.
func (s SessionState) Terminal() bool { return session.State(s).Terminal() }

// Session errors, for errors.Is.
var (
	// ErrSessionDone reports an answer submitted to a terminal session.
	ErrSessionDone = session.ErrDone
	// ErrUnknownQuestion reports an answer to a question the session has
	// not issued (or has already accepted an answer for).
	ErrUnknownQuestion = session.ErrUnknownQuestion
)

// Session is the asynchronous counterpart of Process: instead of blocking on
// a Crowd callback, it hands out the currently best questions
// (NextQuestions) and absorbs answers whenever the crowd returns them
// (SubmitAnswer) — out of band, minutes or hours later. Result reports the
// current top-K belief at any time, and Checkpoint/RestoreSession round-trip
// the whole query state through a versioned JSON envelope so it survives
// process restarts. Sessions driven to completion return exactly the result
// Process would for the same configuration and answers: Process drives the
// same session state machine with its blocking Crowd.
//
// All methods are safe for concurrent use.
type Session struct {
	inner *session.Session
}

// NewSession starts an asynchronous top-K query over the dataset.
// reliability is the probability a submitted answer is correct (the public
// Crowd interface's Reliability): 1 — and, for convenience, 0 — trusts
// answers outright, values in (0, 1) apply the paper's Bayesian
// reweighting.
func NewSession(d *Dataset, query Query, reliability float64) (*Session, error) {
	if d == nil || d.Len() == 0 {
		return nil, fmt.Errorf("crowdtopk: nil or empty dataset")
	}
	if query.Algorithm == "" {
		query.Algorithm = T1On
	}
	if query.Measure == "" {
		query.Measure = MeasureMPO
	}
	inner, err := session.New(session.Config{
		Dists:       d.dists,
		Names:       d.names,
		K:           query.K,
		Budget:      query.Budget,
		Algorithm:   string(query.Algorithm),
		Measure:     string(query.Measure),
		Reliability: reliability,
		RoundSize:   query.RoundSize,
		Seed:        query.Seed,
		Build: tpo.BuildOptions{
			GridSize:  query.GridSize,
			MaxLeaves: query.MaxOrderings,
			Workers:   query.Workers,
		},
	})
	if err != nil {
		return nil, err
	}
	return &Session{inner: inner}, nil
}

// RestoreSession resumes a session from a Checkpoint stream — in this
// process or any other. The checkpoint is self-contained (dataset, tuple
// names, configuration, answer log, conditioned orderings, RNG position)
// and verified against its recorded schema version and dataset digest; a
// mismatch fails with a typed error instead of silently mis-resuming.
func RestoreSession(r io.Reader) (*Session, error) {
	inner, err := session.Restore(r, nil)
	if err != nil {
		return nil, err
	}
	return &Session{inner: inner}, nil
}

// State returns the current lifecycle state.
func (s *Session) State() SessionState { return SessionState(s.inner.State()) }

// NextQuestions returns up to n pending questions for the crowd (n < 1
// returns all pending). The call is idempotent: questions stay pending
// until answered, so a crashed client pulls the same work again. Online
// strategies (T1On, AStarOn) expose one question at a time — the next best
// question is only defined once the previous answer conditioned the
// orderings. A terminal session returns an empty slice.
func (s *Session) NextQuestions(n int) ([]Question, error) {
	qs, _, err := s.inner.NextQuestions(n)
	if err != nil {
		return nil, err
	}
	out := make([]Question, len(qs))
	for i, q := range qs {
		out[i] = Question{I: q.I, J: q.J}
	}
	return out, nil
}

// SubmitAnswer accepts one crowd answer for a currently pending question,
// in either orientation of the pair. Answers to questions the session has
// not issued (or already accepted) fail with an error wrapping
// ErrUnknownQuestion; answers after termination fail with one wrapping
// ErrSessionDone.
func (s *Session) SubmitAnswer(a Answer) error {
	return s.inner.SubmitAnswer(tpo.Answer{Q: tpo.Question{I: a.Q.I, J: a.Q.J}, Yes: a.Yes})
}

// Result reports the current top-K belief. It is valid in every state:
// mid-query it reflects the answers absorbed so far.
func (s *Session) Result() *Result {
	res := s.inner.Result()
	out := &Result{
		Ranking:        append([]int(nil), res.Ranking...),
		Resolved:       res.Resolved,
		QuestionsAsked: res.Asked,
		Orderings:      res.Orderings,
		Uncertainty:    res.Uncertainty,
	}
	out.Names = make([]string, len(out.Ranking))
	for i, id := range out.Ranking {
		out.Names[i] = s.inner.Name(id)
	}
	return out
}

// Checkpoint writes the full session state as a versioned JSON envelope.
func (s *Session) Checkpoint(w io.Writer) error { return s.inner.Checkpoint(w) }
