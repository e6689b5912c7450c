package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"crowdtopk/internal/dataset"
	"crowdtopk/internal/dist"
	"crowdtopk/internal/par"
	"crowdtopk/internal/pcache"
	"crowdtopk/internal/persist"
	"crowdtopk/internal/selection"
	"crowdtopk/internal/session"
	"crowdtopk/internal/tpo"
	"crowdtopk/internal/uncertainty"
)

// sessionBackend is rung 3: the session package, and on the durable
// workloads a persist.File written after each route as the service's
// persister would (a snapshot after create, an append per answer batch).
type sessionBackend struct {
	tr      *tracer
	pool    *par.Budget
	file    *persist.File // nil on catalog
	sess    map[string]*session.Session
	next    int
	pending string // session to Put once the route has replied
	putErr  error
}

func (b *sessionBackend) create(in *sessionInput) (string, error) {
	dists, err := fromSpecs(b.tr, in)
	if err != nil {
		return "", err
	}
	done := b.tr.call("session.NewCtx")
	s, err := session.NewCtx(context.Background(), session.Config{Dists: dists, K: in.k, Budget: budget,
		Algorithm: algorithm, Measure: measure, Pool: b.pool})
	done()
	if err != nil {
		return "", err
	}
	b.next++
	id := "s_ladder_" + strconv.Itoa(b.next)
	b.sess[id] = s
	b.pending = id
	return id, nil
}

func (b *sessionBackend) get(id string) (*session.Session, error) {
	if s, ok := b.sess[id]; ok {
		return s, nil
	}
	if b.file == nil {
		return nil, fmt.Errorf("session %s not found", id)
	}
	done := b.tr.call("persist.Get")
	s, err := b.file.Get(id)
	done()
	if err != nil {
		return nil, err
	}
	b.sess[id] = s
	return s, nil
}

func (b *sessionBackend) questions(id string) ([]tpo.Question, string, int, error) {
	s, err := b.get(id)
	if err != nil {
		return nil, "", 0, err
	}
	done := b.tr.call("session.NextQuestions")
	qs, st, err := s.NextQuestions(0)
	done()
	return qs, string(st.State), st.Asked, err
}

func (b *sessionBackend) answers(id string, as []tpo.Answer) (int, error) {
	s, err := b.get(id)
	if err != nil {
		return 0, err
	}
	for _, a := range as {
		done := b.tr.call("session.SubmitAnswerCtx")
		err := s.SubmitAnswerCtx(context.Background(), a)
		done()
		if err != nil {
			return 0, err
		}
	}
	b.pending = id
	return s.Status().Asked, nil
}

func (b *sessionBackend) result(id string) ([]int, string, int, error) {
	s, err := b.get(id)
	if err != nil {
		return nil, "", 0, err
	}
	done := b.tr.call("session.Result")
	r := s.Result()
	done()
	return r.Ranking, string(r.State), r.Asked, nil
}

func (b *sessionBackend) remove(id string) error {
	delete(b.sess, id)
	if b.file == nil {
		return nil
	}
	done := b.tr.call("persist.Delete")
	defer done()
	return b.file.Delete(id)
}

// afterRoute writes the session the route changed, outside the route's
// span: the service acks before its persister writes.
func (b *sessionBackend) afterRoute() {
	id := b.pending
	b.pending = ""
	if b.file == nil || id == "" {
		return
	}
	s := b.sess[id]
	before := b.file.Counters().Snapshots
	done := b.tr.call("persist.Put")
	err := b.file.Put(id, s)
	done()
	if err != nil {
		b.putErr = errors.Join(b.putErr, fmt.Errorf("persist.Put %s: %w", id, err))
		return
	}
	if b.file.Counters().Snapshots > before {
		b.tr.rename("persist.Put.snapshot")
	} else {
		b.tr.rename("persist.Put.append")
	}
}

// primState is one session at rung 4, kept as the session package keeps it.
type primState struct {
	tree    *tpo.Tree
	live    *selection.LiveEngine
	m       uncertainty.Measure
	k       int
	pending []tpo.Question
	asked   int
	state   string
}

// primitiveBackend is rung 4: the calls session.NewCtx, SubmitAnswerCtx and
// Result make, made directly, plus session.Restore for hydration.
type primitiveBackend struct {
	tr       *tracer
	pool     *par.Budget
	st       map[string]*primState
	next     int
	fillData string
	leaves   *[]float64
	// Restart: the state each filled session should hydrate to, built
	// untimed by prepare, with the answers the fill acknowledged.
	restored map[string]*primState
	replay   map[string][]tpo.Answer
}

func (b *primitiveBackend) build(in *sessionInput) (*primState, error) {
	dists, err := fromSpecs(b.tr, in)
	if err != nil {
		return nil, err
	}
	done := b.tr.call("dataset.Digest")
	_, err = dataset.Digest(dists)
	done()
	if err != nil {
		return nil, err
	}
	m, err := uncertainty.New(measure)
	if err != nil {
		return nil, err
	}
	got := b.pool.Acquire(0)
	done = b.tr.call("pcache.Prewarm")
	pcache.Prewarm(dists, got)
	done()
	done = b.tr.call("tpo.Build")
	tree, err := tpo.Build(dists, in.k, tpo.BuildOptions{Workers: got})
	done()
	b.pool.Release(got)
	if err != nil {
		return nil, err
	}
	if !b.tr.off {
		*b.leaves = append(*b.leaves, float64(tree.NumLeaves()))
	}
	st := &primState{tree: tree, live: selection.NewLiveEngine(), m: m, k: in.k, state: "created"}
	if err := b.plan(st, "selection.first_plan"); err != nil {
		return nil, err
	}
	return st, nil
}

func (b *primitiveBackend) create(in *sessionInput) (string, error) {
	st, err := b.build(in)
	if err != nil {
		return "", err
	}
	b.next++
	id := "p" + strconv.Itoa(b.next)
	b.st[id] = st
	return id, nil
}

// plan picks the next question as session.plan does for T1-on, or settles
// the terminal state.
func (b *primitiveBackend) plan(st *primState, span string) error {
	remaining := budget - st.asked
	if remaining <= 0 {
		return b.finish(st)
	}
	done := b.tr.call(span)
	q, ok, err := selection.T1On{}.NextQuestion(st.tree.LeafSet(), remaining,
		&selection.Context{Tree: st.tree, Measure: st.m, Pool: b.pool, Live: st.live})
	done()
	if err != nil {
		return err
	}
	if !ok {
		return b.finish(st)
	}
	st.pending = []tpo.Question{q}
	return nil
}

func (b *primitiveBackend) finish(st *primState) error {
	if st.tree.Depth() != st.k {
		return fmt.Errorf("tree depth %d below K=%d", st.tree.Depth(), st.k)
	}
	st.live.Invalidate()
	st.pending = nil
	st.state = "exhausted"
	if st.tree.NumLeaves() <= 1 {
		st.state = "converged"
	}
	return nil
}

// apply conditions the tree on one answer as engine.ApplyAnswerLive does
// for a fully trusted crowd, then replans once nothing is pending.
func (b *primitiveBackend) apply(st *primState, a tpo.Answer) error {
	if st.state == "converged" || st.state == "exhausted" {
		return session.ErrDone
	}
	if a.Q.I > a.Q.J {
		a = tpo.Answer{Q: tpo.NewQuestion(a.Q.J, a.Q.I), Yes: !a.Yes}
	}
	found := -1
	for i, q := range st.pending {
		if q == a.Q {
			found = i
		}
	}
	if found < 0 {
		return fmt.Errorf("%w: %v", session.ErrUnknownQuestion, a.Q)
	}
	done := b.tr.call("tpo.Prune")
	err := st.tree.Prune(a)
	done()
	switch {
	case errors.Is(err, tpo.ErrContradiction):
	case err != nil:
		return err
	default:
		done = b.tr.call("selection.LiveEngine.Sync")
		st.live.Sync(context.Background(), st.tree, true)
		done()
	}
	st.pending = append(st.pending[:found], st.pending[found+1:]...)
	st.asked++
	if st.state == "created" {
		st.state = "awaiting_answers"
	}
	if len(st.pending) == 0 {
		return b.plan(st, "selection.replan")
	}
	return nil
}

// prepare builds the rung-4 state of a filled session: the tree the fill's
// answers left, which the hydrate route then checks against
// session.Restore. It runs before the session's replay, outside every
// route. The build is timed, so that restart, which creates no sessions,
// still measures the create-path primitives on its own datasets; replaying
// the fill's answers is not.
func (b *primitiveBackend) prepare(in *sessionInput, fs fillSession) error {
	st, err := b.build(in)
	if err != nil {
		return err
	}
	b.tr.off = true
	defer func() { b.tr.off = false }()
	as := make([]tpo.Answer, len(fs.Answers))
	for i, a := range fs.Answers {
		as[i] = tpo.Answer{Q: tpo.Question{I: a.I, J: a.J}, Yes: a.Yes}
		if err := b.apply(st, as[i]); err != nil {
			return err
		}
	}
	if b.restored == nil {
		b.restored, b.replay = map[string]*primState{}, map[string][]tpo.Answer{}
	}
	b.restored[in.fillID], b.replay[in.fillID] = st, as
	return nil
}

// hydrate is the first touch of a filled session: read its snapshot, restore
// it and replay the fill's answers, as persist.File.Get does.
func (b *primitiveBackend) hydrate(id string) (*primState, error) {
	st, ok := b.restored[id]
	if !ok {
		return nil, fmt.Errorf("session %s not prepared", id)
	}
	as := b.replay[id]
	delete(b.restored, id)
	delete(b.replay, id)
	dir := filepath.Join(b.fillData, "sessions", id)
	done := b.tr.call("os.ReadFile")
	snap, err := os.ReadFile(filepath.Join(dir, "snapshot.json"))
	done()
	if err != nil {
		return nil, err
	}
	done = b.tr.call("session.Restore")
	s, err := session.Restore(bytes.NewReader(snap), b.pool)
	done()
	if err != nil {
		return nil, err
	}
	done = b.tr.call("session.replay")
	for _, a := range as {
		if err = s.SubmitAnswer(a); err != nil {
			break
		}
	}
	done()
	if err != nil {
		return nil, err
	}
	qs, status, err := s.NextQuestions(0)
	if err != nil {
		return nil, err
	}
	if status.Asked != st.asked || fmt.Sprint(qs) != fmt.Sprint(st.pending) {
		return nil, checkf("restored session asked %d pending %v, primitives asked %d pending %v", status.Asked, qs, st.asked, st.pending)
	}
	b.st[id] = st
	return st, nil
}

func (b *primitiveBackend) questions(id string) ([]tpo.Question, string, int, error) {
	st, ok := b.st[id]
	if !ok {
		var err error
		if st, err = b.hydrate(id); err != nil {
			return nil, "", 0, err
		}
	}
	if len(st.pending) > 0 && st.state == "created" {
		st.state = "awaiting_answers"
	}
	return append([]tpo.Question(nil), st.pending...), st.state, st.asked, nil
}

func (b *primitiveBackend) answers(id string, as []tpo.Answer) (int, error) {
	st, ok := b.st[id]
	if !ok {
		return 0, fmt.Errorf("session %s not found", id)
	}
	for _, a := range as {
		if err := b.apply(st, a); err != nil {
			return 0, err
		}
	}
	return st.asked, nil
}

func (b *primitiveBackend) result(id string) ([]int, string, int, error) {
	st, ok := b.st[id]
	if !ok {
		return nil, "", 0, fmt.Errorf("session %s not found", id)
	}
	done := b.tr.call("tpo.Tree.LeafSet")
	ls := st.tree.LeafSet()
	done()
	done = b.tr.call("uncertainty.Representative")
	ranking := uncertainty.Representative(st.m, ls)
	done()
	done = b.tr.call("uncertainty.Measure.Value")
	_ = st.m.Value(ls)
	done()
	return ranking, st.state, st.asked, nil
}

func (b *primitiveBackend) remove(id string) error {
	delete(b.st, id)
	return nil
}

// fromSpecs is dataset.FromSpecs under a span, shared by rungs 3 and 4.
func fromSpecs(tr *tracer, in *sessionInput) ([]dist.Distribution, error) {
	done := tr.call("dataset.FromSpecs")
	defer done()
	return dataset.FromSpecs(in.specs)
}
