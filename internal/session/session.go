// Package session is the protocol's query driver: a long-lived, resumable
// state machine that hands out the next best questions (NextQuestions),
// absorbs answers whenever they arrive (SubmitAnswer) — minutes or hours
// later, in any order within a round — and reports the current top-K belief
// at any time (Result). The whole session round-trips through a versioned
// JSON checkpoint (Checkpoint/Restore), so a crashed or redeployed server
// resumes mid-query instead of re-asking the crowd.
//
// It is the only question loop in the repository: the serving stack wraps
// it, and engine.Run drives one against a simulated crowd for every
// experiment, so the figures come from the code that serves traffic.
//
// Lifecycle:
//
//	Created ──NextQuestions──▶ AwaitingAnswers ──SubmitAnswer──▶ ... ─┬─▶ Converged  (single ordering remains)
//	   │                                                              └─▶ Exhausted  (questions spent, uncertainty remains)
//	   └───────────── (budget 0 or nothing to ask) ───────────────────┴──────▲
//
// All methods are safe for concurrent use; a Session serializes its own
// transitions with an internal lock.
package session

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"crowdtopk/internal/dataset"
	"crowdtopk/internal/dist"
	"crowdtopk/internal/obs"
	"crowdtopk/internal/par"
	"crowdtopk/internal/pcache"
	"crowdtopk/internal/rank"
	"crowdtopk/internal/selection"
	"crowdtopk/internal/tpo"
	"crowdtopk/internal/uncertainty"
)

// State is a session lifecycle phase.
type State string

// Session states. Converged and Exhausted are terminal.
const (
	// Created: the tree is built and questions are planned, but none have
	// been delivered yet.
	Created State = "created"
	// AwaitingAnswers: questions have been handed out and the session is
	// waiting for the crowd.
	AwaitingAnswers State = "awaiting_answers"
	// Converged: a single ordering remains; the query is answered.
	Converged State = "converged"
	// Exhausted: no further questions will be asked (budget spent or the
	// strategy found nothing more worth asking) but several orderings
	// remain possible.
	Exhausted State = "exhausted"
)

// Terminal reports whether the session will accept no further answers.
func (s State) Terminal() bool { return s == Converged || s == Exhausted }

// valid reports whether s is one of the defined states (used when restoring
// checkpoints).
func (s State) valid() bool {
	switch s {
	case Created, AwaitingAnswers, Converged, Exhausted:
		return true
	}
	return false
}

// Errors reported by session operations.
var (
	// ErrDone reports an answer submitted to a terminal session.
	ErrDone = errors.New("session: already converged or exhausted")
	// ErrUnknownQuestion reports an answer to a question the session has
	// not issued (or has already accepted an answer for).
	ErrUnknownQuestion = errors.New("session: answer to a question not currently issued")
	// ErrInvalidConfig reports an unusable session configuration.
	ErrInvalidConfig = errors.New("session: invalid config")
	// ErrInvalidCheckpoint reports a checkpoint stream that is structurally
	// unusable: not decodable, or internally inconsistent. Mismatched
	// schema/kind/digest are reported as *MismatchError instead.
	ErrInvalidCheckpoint = errors.New("session: invalid checkpoint")
)

// Config describes one asynchronous query session.
type Config struct {
	// Dists is the uncertain score model of the N tuples.
	Dists []dist.Distribution
	// Names optionally attaches human-readable tuple names (len N); they
	// ride along in checkpoints for rendering on the other side.
	Names []string
	// K is the result size; Budget the maximum number of crowd answers
	// accepted. Budget 0 creates an immediately terminal session that
	// reports the prior belief.
	K, Budget int
	// Algorithm selects the question strategy by Alg* name (default T1-on,
	// the paper's best cost/quality tradeoff for interactive use).
	Algorithm string
	// Measure names the uncertainty measure (default MPO).
	Measure string
	// Reliability is the probability a submitted answer is correct: 1
	// prunes orderings outright, lower values apply the Bayesian
	// reweighting of §III.C. Default 1.
	Reliability float64
	// RoundSize is the incr algorithm's questions per round (default 5).
	RoundSize int
	// BranchEpsilon tunes the expected-residual recursion of every
	// selection sweep (0 selects selection.DefaultBranchEpsilon).
	// Checkpoints do not carry it: only in-process drivers (engine.Run)
	// set it.
	BranchEpsilon float64
	// Build tunes TPO construction.
	Build tpo.BuildOptions
	// Seed drives the random baselines' question shuffles.
	Seed int64
	// RNGDraws starts the Seed stream this many draws in. A driver that
	// drew from the head of the stream itself — engine.Run samples its
	// simulated world there — hands the baselines the rest, exactly as one
	// shared generator would. Checkpoints record the absolute position.
	RNGDraws uint64
	// Pool optionally shares a process-wide worker budget with other
	// sessions: tree builds and extensions run with whatever share is
	// free (results are identical for any share). Nil uses Build.Workers
	// as-is.
	Pool *par.Budget
}

// Session is a resumable uncertainty-reduction query. Create one with New,
// resume one with Restore.
type Session struct {
	mu sync.Mutex

	cfg     Config
	measure uncertainty.Measure
	digest  string // content hash of cfg.Dists, stamped into checkpoints ("" when transient)

	tree    *tpo.Tree
	live    *selection.LiveEngine // selection engine kept current across answers
	online  selection.Online      // non-nil for online algorithms
	src     *CountingSource
	rng     *rand.Rand
	state   State
	pending []tpo.Question // issued (or planned) questions awaiting answers
	answers []tpo.Answer   // accepted answers, in submission order
	asked   int
	contra  int
	times   Timings

	dirtyHook func() // runs (outside the lock) after every accepted answer
}

// Timings splits a session's wall-clock time by protocol phase.
type Timings struct {
	// Build covers tree construction and extension, the π-cache fill
	// included.
	Build time.Duration
	// Select covers the question-selection sweeps.
	Select time.Duration
	// Apply covers conditioning the tree (and the live selection engine)
	// on accepted answers.
	Apply time.Duration
}

// New validates the configuration, builds the initial tree and plans the
// first questions. The session starts in Created (or directly in a terminal
// state when there is nothing to ask).
func New(cfg Config) (*Session, error) {
	return NewCtx(context.Background(), cfg)
}

// NewCtx is New carrying a request context for tracing: the build and the
// first planning sweep attribute their time to the creating request's span
// tree. The context does not cancel the build.
func NewCtx(ctx context.Context, cfg Config) (*Session, error) {
	m, err := validate(&cfg)
	if err != nil {
		return nil, err
	}
	digest, err := dataset.Digest(cfg.Dists)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
	}
	return start(ctx, cfg, m, digest)
}

// NewTransient is New for a session that never leaves this process: its
// dataset needs no wire form (conditioned Gaussian scores, for one, have
// none), and Checkpoint reports an error. engine.Run drives one per trial.
func NewTransient(cfg Config) (*Session, error) {
	m, err := validate(&cfg)
	if err != nil {
		return nil, err
	}
	return start(context.Background(), cfg, m, "")
}

// start builds the initial tree of a validated configuration and plans the
// first questions.
func start(ctx context.Context, cfg Config, m uncertainty.Measure, digest string) (*Session, error) {
	s := &Session{cfg: cfg, measure: m, digest: digest, state: Created, live: selection.NewLiveEngine()}
	s.initRNG(cfg.RNGDraws)
	if err := s.withWorkers(func(workers int) error {
		began := time.Now()
		defer func() { s.times.Build += time.Since(began) }()
		// Bulk-fill the pairwise π cache before building: the tree build
		// never reads it, but the first residual sweep of a cold dataset
		// then finds every pair hot, and the fill cost lands in the stats
		// endpoint's prewarm counters instead of smeared over the first
		// NextQuestions call.
		pcache.Prewarm(cfg.Dists, workers)
		opt := cfg.Build
		opt.Workers = workers
		var err error
		if cfg.Algorithm == AlgIncr {
			s.tree, err = tpo.StartIncremental(cfg.Dists, cfg.K, opt)
		} else {
			s.tree, err = tpo.Build(cfg.Dists, cfg.K, opt)
		}
		return err
	}); err != nil {
		return nil, err
	}
	if err := s.plan(ctx); err != nil {
		return nil, err
	}
	return s, nil
}

// Bounds on the build's evaluation grid. A PDF and a CDF row per tuple are
// sampled on it, so N·grid_size samples cost 16 bytes each: the bounds cap
// one session's rows at 256 MB.
const (
	maxGridSize    = 1 << 16
	maxGridSamples = 1 << 24
)

// validate applies defaults, checks the configuration and instantiates the
// measure. Both entry points (New and checkpoint Restore) consume it, so
// the two cannot drift on what a usable configuration is.
func validate(cfg *Config) (uncertainty.Measure, error) {
	if len(cfg.Dists) == 0 {
		return nil, fmt.Errorf("%w: empty dataset", ErrInvalidConfig)
	}
	if cfg.Names != nil && len(cfg.Names) != len(cfg.Dists) {
		return nil, fmt.Errorf("%w: %d names for %d tuples", ErrInvalidConfig, len(cfg.Names), len(cfg.Dists))
	}
	if cfg.K < 1 || cfg.K > len(cfg.Dists) {
		return nil, fmt.Errorf("%w: k=%d with %d tuples", ErrInvalidConfig, cfg.K, len(cfg.Dists))
	}
	if cfg.Budget < 0 {
		return nil, fmt.Errorf("%w: negative budget %d", ErrInvalidConfig, cfg.Budget)
	}
	if cfg.RoundSize < 0 {
		return nil, fmt.Errorf("%w: negative round size %d", ErrInvalidConfig, cfg.RoundSize)
	}
	if cfg.RNGDraws > maxRNGReplay {
		return nil, fmt.Errorf("%w: rng draws %d exceed replay bound %d", ErrInvalidConfig, cfg.RNGDraws, uint64(maxRNGReplay))
	}
	// The build samples every tuple on the grid before anything else can
	// fail, so the grid is bounded here, ahead of any allocation.
	grid := cfg.Build.GridSize
	if grid < 0 || grid > maxGridSize {
		return nil, fmt.Errorf("%w: grid size %d outside [0, %d]", ErrInvalidConfig, grid, maxGridSize)
	}
	if grid == 0 {
		grid = tpo.DefaultGridSize
	}
	if samples := len(cfg.Dists) * grid; samples > maxGridSamples {
		return nil, fmt.Errorf("%w: %d tuples on a %d-point grid exceed %d samples", ErrInvalidConfig, len(cfg.Dists), grid, maxGridSamples)
	}
	if cfg.Build.ProbEpsilon < 0 {
		return nil, fmt.Errorf("%w: negative probability threshold %g", ErrInvalidConfig, cfg.Build.ProbEpsilon)
	}
	applyDefaults(cfg)
	if cfg.Reliability <= 0 || cfg.Reliability > 1 {
		return nil, fmt.Errorf("%w: reliability %g outside (0, 1]", ErrInvalidConfig, cfg.Reliability)
	}
	if !isOffline(cfg.Algorithm) && !isOnline(cfg.Algorithm) && cfg.Algorithm != AlgIncr {
		return nil, fmt.Errorf("%w: %q", ErrUnknownAlgorithm, cfg.Algorithm)
	}
	m, err := uncertainty.New(cfg.Measure)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
	}
	return m, nil
}

func applyDefaults(cfg *Config) {
	if cfg.Algorithm == "" {
		cfg.Algorithm = AlgT1On
	}
	if cfg.Measure == "" {
		cfg.Measure = "MPO"
	}
	if cfg.Reliability == 0 {
		cfg.Reliability = 1
	}
	if cfg.RoundSize == 0 {
		cfg.RoundSize = 5
	}
}

// initRNG seeds the counting source and burns `draws` values (checkpoint
// restore replays the source to the recorded position).
func (s *Session) initRNG(draws uint64) {
	s.src = NewCountingSource(s.cfg.Seed)
	s.src.burn(draws)
	s.rng = rand.New(s.src)
}

// withWorkers runs f with the parallelism this session may use right now:
// its configured worker count when it has no pool, otherwise whatever share
// of the shared budget is currently free (at least one slot).
func (s *Session) withWorkers(f func(workers int) error) error {
	if s.cfg.Pool == nil {
		return f(s.cfg.Build.Workers)
	}
	got := s.cfg.Pool.Acquire(s.cfg.Build.Workers)
	defer s.cfg.Pool.Release(got)
	return f(got)
}

func (s *Session) context() *selection.Context {
	// The residual sweeps draw their parallelism from the shared pool (when
	// configured) for the duration of each sweep, exactly like builds and
	// extensions do through withWorkers; selected questions are identical
	// for any share.
	return &selection.Context{
		Tree:          s.tree,
		Measure:       s.measure,
		BranchEpsilon: s.cfg.BranchEpsilon,
		Workers:       s.cfg.Build.Workers,
		Pool:          s.cfg.Pool,
		Live:          s.live,
	}
}

// plan fills the pending question list after construction or after the
// previous questions were all answered, and settles terminal states. It
// runs with s.mu held (or on a session not yet shared).
func (s *Session) plan(ctx context.Context) error {
	if s.state.Terminal() {
		return nil
	}
	if len(s.pending) > 0 {
		return nil
	}
	remaining := s.cfg.Budget - s.asked
	if remaining <= 0 {
		return s.finish(ctx)
	}
	ctx, sp := obs.StartSpan(ctx, "selection.plan")
	defer sp.End()
	sp.SetAttr("algorithm", s.cfg.Algorithm)
	switch {
	case isOffline(s.cfg.Algorithm):
		// Offline strategies commit to the whole batch before any answer
		// (§III.A); the batch is planned once, right after construction.
		if s.asked > 0 {
			return s.finish(ctx) // batch consumed
		}
		strat, err := offlineStrategy(s.cfg.Algorithm, s.rng)
		if err != nil {
			return err
		}
		began := time.Now()
		batch, err := strat.SelectBatch(s.tree.LeafSet(), remaining, s.context())
		s.times.Select += time.Since(began)
		if err != nil {
			return err
		}
		if len(batch) == 0 {
			return s.finish(ctx)
		}
		s.pending = batch
	case isOnline(s.cfg.Algorithm):
		if s.online == nil {
			strat, err := onlineStrategy(s.cfg.Algorithm)
			if err != nil {
				return err
			}
			s.online = strat
		}
		began := time.Now()
		q, ok, err := s.online.NextQuestion(s.tree.LeafSet(), remaining, s.context())
		s.times.Select += time.Since(began)
		if err != nil {
			return err
		}
		if !ok {
			return s.finish(ctx) // early termination: all uncertainty removed
		}
		s.pending = []tpo.Question{q}
	default: // incr
		var batch []tpo.Question
		var build, sel time.Duration
		err := s.withWorkers(func(workers int) error {
			s.tree.SetWorkers(workers)
			// The pool share is already held for this round: the context
			// reuses it directly rather than re-acquiring (two sessions
			// nesting pool acquisitions could deadlock each other).
			sctx := s.context()
			sctx.Workers, sctx.Pool = workers, nil
			var err error
			batch, build, sel, err = planIncrRound(s.tree, s.cfg.K, s.cfg.RoundSize, remaining, sctx)
			return err
		})
		s.times.Build += build
		s.times.Select += sel
		if err != nil {
			return err
		}
		sp.SetAttr("build_ms", float64(build)/float64(time.Millisecond))
		sp.SetAttr("select_ms", float64(sel)/float64(time.Millisecond))
		if len(batch) == 0 {
			return s.finish(ctx) // tree fully built and certain
		}
		s.pending = batch
	}
	sp.SetAttr("batch", len(s.pending))
	return nil
}

// finish settles the terminal state: the tree is materialized to depth K
// (the incr algorithm may still owe levels) and the session converges or
// exhausts depending on whether a single ordering remains.
func (s *Session) finish(ctx context.Context) error {
	_, sp := obs.StartSpan(ctx, "session.finish")
	defer sp.End()
	if err := s.withWorkers(func(workers int) error {
		s.tree.SetWorkers(workers)
		d, err := extendToDepth(s.tree, s.cfg.K)
		s.times.Build += d
		return err
	}); err != nil {
		return err
	}
	// The extension (if any) changed the leaf universe, and a terminal
	// session selects no further questions either way: drop the held engine
	// and release the arena/index memory.
	s.live.Invalidate()
	s.pending = nil
	if s.tree.LeafSet().Len() <= 1 {
		s.state = Converged
	} else {
		s.state = Exhausted
	}
	return nil
}

// State returns the current lifecycle state.
func (s *Session) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// NextQuestions returns up to n pending questions for the crowd (n < 1
// returns all of them) together with the Status they were issued under —
// one atomic snapshot, so a concurrent answer cannot pair fresh questions
// with a terminal state in the caller's view. The call is idempotent —
// questions stay pending until answered, so a crashed client pulls the
// same work again. Online strategies expose one question at a time by
// construction: the next best question is only defined once the previous
// answer has conditioned the tree. A terminal session returns an empty
// slice.
func (s *Session) NextQuestions(n int) ([]tpo.Question, Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var qs []tpo.Question
	if !s.state.Terminal() {
		if len(s.pending) > 0 && s.state == Created {
			s.state = AwaitingAnswers
		}
		if n < 1 || n > len(s.pending) {
			n = len(s.pending)
		}
		qs = append([]tpo.Question(nil), s.pending[:n]...)
	}
	return qs, s.status(), nil
}

// SubmitAnswer accepts one crowd answer for a currently issued question,
// conditions the tree with the session's reliability (prune or reweight),
// and plans further questions once the outstanding ones are all answered.
// Answers may arrive in any order within the issued set and in either
// orientation of the pair. A contradictory answer is absorbed (counted, tree
// unchanged).
func (s *Session) SubmitAnswer(a tpo.Answer) error {
	return s.SubmitAnswerCtx(context.Background(), a)
}

// SubmitAnswerCtx is SubmitAnswer carrying a request context for tracing:
// the apply and any follow-up planning sweep land in the caller's span tree.
func (s *Session) SubmitAnswerCtx(ctx context.Context, a tpo.Answer) error {
	s.mu.Lock()
	err := s.submitLocked(ctx, a)
	hook := s.dirtyHook
	s.mu.Unlock()
	// The hook fires outside the lock: a persistence layer reacting to it may
	// immediately call back into Answers/Checkpoint, which take the lock.
	if err == nil && hook != nil {
		hook()
	}
	return err
}

func (s *Session) submitLocked(ctx context.Context, a tpo.Answer) error {
	if s.state.Terminal() {
		return fmt.Errorf("%w (state %s)", ErrDone, s.state)
	}
	if a.Q.I == a.Q.J {
		return fmt.Errorf("%w: self-comparison t%d", ErrUnknownQuestion, a.Q.I)
	}
	// Canonicalize: questions are stored with I < J.
	if a.Q.I > a.Q.J {
		a = tpo.Answer{Q: tpo.NewQuestion(a.Q.J, a.Q.I), Yes: !a.Yes}
	}
	found := -1
	for i, q := range s.pending {
		if q == a.Q {
			found = i
			break
		}
	}
	if found < 0 {
		return fmt.Errorf("%w: %v", ErrUnknownQuestion, a.Q)
	}
	// Condition the tree first: on a real apply error the answer is not
	// accepted, so the question stays pending and the answer log (and any
	// later Checkpoint) never records an answer that did not condition the
	// tree.
	// The apply span closes before any follow-up planning, so plan() below
	// parents its selection.plan span on the request (ctx), not on the
	// already-ended apply span — keeping the tree properly nested for the
	// self-time identity.
	applyCtx, sp := obs.StartSpan(ctx, "session.apply")
	sp.SetAttr("i", a.Q.I)
	sp.SetAttr("j", a.Q.J)
	sp.SetAttr("yes", a.Yes)
	began := time.Now()
	contradicted, err := applyAnswer(s.tree, a, s.cfg.Reliability)
	if err == nil && !contradicted {
		// Bring the held selection engine in line in place (tombstoning
		// pruned leaves, reweighting survivors) instead of rebuilding it on
		// the next round.
		s.live.Sync(applyCtx, s.tree, s.cfg.Reliability >= 1)
	}
	s.times.Apply += time.Since(began)
	sp.SetAttr("contradicted", contradicted)
	sp.End()
	if err != nil {
		return err
	}
	s.pending = append(s.pending[:found], s.pending[found+1:]...)
	s.answers = append(s.answers, a)
	s.asked++
	if contradicted {
		s.contra++
	}
	if s.state == Created {
		s.state = AwaitingAnswers
	}
	if len(s.pending) == 0 {
		return s.plan(ctx)
	}
	return nil
}

// Result reports the current top-K belief.
type Result struct {
	// State is the lifecycle state the result was computed in.
	State State
	// Ranking is the representative ordering under the session's measure
	// (the single survivor when Resolved). Until an incr session
	// terminates it may be shorter than K: the incremental tree only
	// materializes the levels its questions needed so far.
	Ranking rank.Ordering
	// Resolved reports whether a single ordering remains.
	Resolved bool
	// Orderings is the number of orderings still possible.
	Orderings int
	// Uncertainty is the measure's current value.
	Uncertainty float64
	// Asked counts accepted answers; Budget the configured maximum.
	Asked, Budget int
	// Pending counts questions currently awaiting answers.
	Pending int
	// Contradictions counts absorbed contradictory answers.
	Contradictions int
}

// Status is the cheap subset of Result: lifecycle counters that need no
// sweep over the leaf set. Serving hot paths (question polls, answer acks)
// report it instead of computing the full belief.
type Status struct {
	State          State
	Asked, Budget  int
	Pending        int
	Contradictions int
}

// Status reports the lifecycle counters without computing the
// representative ranking or the measure value (both O(orderings)).
func (s *Session) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.status()
}

// status builds the counter snapshot with s.mu held.
func (s *Session) status() Status {
	return Status{
		State:          s.state,
		Asked:          s.asked,
		Budget:         s.cfg.Budget,
		Pending:        len(s.pending),
		Contradictions: s.contra,
	}
}

// SetDirtyHook registers f to run after every accepted answer (nil clears
// it). The hook is invoked outside the session lock, so it may call back
// into the session (Answers, Checkpoint, Status) — a persistence layer uses
// it to learn the session has durable work pending without polling.
func (s *Session) SetDirtyHook(f func()) {
	s.mu.Lock()
	s.dirtyHook = f
	s.mu.Unlock()
}

// AnswersSince returns a copy of the accepted answers from index from on
// (submission order), plus the total accepted count. Persistence layers
// append exactly this tail to their WAL — copying the whole log on every
// persisted answer would make a long session's writes O(n²) cumulative —
// and replaying it through SubmitAnswer on a restored checkpoint reproduces
// the session state (every transition is deterministic given the
// checkpointed RNG position). A from outside [0, total] returns a nil tail
// and the total, signalling the caller's bookkeeping is stale.
func (s *Session) AnswersSince(from int) ([]tpo.Answer, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.answers)
	if from < 0 || from > n {
		return nil, n
	}
	return append([]tpo.Answer(nil), s.answers[from:]...), n
}

// Timings reports the wall-clock time spent per protocol phase since the
// session was created (a restored session counts from its restore).
func (s *Session) Timings() Timings {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.times
}

// LeafSet snapshots the orderings still possible, with their probabilities.
// Until an incr session terminates its paths may be shorter than K.
func (s *Session) LeafSet() *tpo.LeafSet {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tree.LeafSet()
}

// Orderings counts the orderings still possible (without snapshotting them).
func (s *Session) Orderings() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tree.NumLeaves()
}

// Result computes the current top-K belief with uncertainty. It is valid in
// every state: mid-query it reports the partially conditioned belief.
func (s *Session) Result() *Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	ls := s.tree.LeafSet()
	return &Result{
		State:          s.state,
		Ranking:        uncertainty.Representative(s.measure, ls),
		Resolved:       ls.Len() <= 1,
		Orderings:      ls.Len(),
		Uncertainty:    s.measure.Value(ls),
		Asked:          s.asked,
		Budget:         s.cfg.Budget,
		Pending:        len(s.pending),
		Contradictions: s.contra,
	}
}

// Name returns the tuple's configured name (t<id> when unnamed).
func (s *Session) Name(id int) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cfg.Names != nil && id >= 0 && id < len(s.cfg.Names) {
		return s.cfg.Names[id]
	}
	return fmt.Sprintf("t%d", id)
}

// Names returns the configured tuple names (nil when unnamed).
func (s *Session) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.cfg.Names...)
}

// Len returns the number of tuples in the session's dataset.
func (s *Session) Len() int { return len(s.cfg.Dists) }

// CountingSource wraps the standard PRNG source and counts how many values
// have been drawn, so a checkpoint can record the exact generator position
// and a restore can replay to it (as can a driver handing a session the
// rest of a stream through Config.RNGDraws). Both Int63 and Uint64 advance
// the underlying generator by one step, so replaying n draws through either
// method reproduces the state. It implements rand.Source64.
type CountingSource struct {
	src   rand.Source64
	draws uint64
}

// NewCountingSource returns the seeded source sessions draw from.
func NewCountingSource(seed int64) *CountingSource {
	return &CountingSource{src: rand.NewSource(seed).(rand.Source64)}
}

// Draws reports how many values have been drawn.
func (c *CountingSource) Draws() uint64 { return c.draws }

func (c *CountingSource) Int63() int64 {
	c.draws++
	return c.src.Int63()
}

func (c *CountingSource) Uint64() uint64 {
	c.draws++
	return c.src.Uint64()
}

func (c *CountingSource) Seed(seed int64) {
	c.src.Seed(seed)
	c.draws = 0
}

func (c *CountingSource) burn(n uint64) {
	for i := uint64(0); i < n; i++ {
		c.src.Uint64()
	}
	c.draws = n
}
