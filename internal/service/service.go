// Package service is the transport-agnostic core of the crowdtopk serving
// stack: every session operation the system offers — create or restore,
// question delivery, answer intake with partial-batch accounting, result and
// checkpoint retrieval, deletion, listing, stats — as typed Go calls over
// typed request/response structs and typed errors, with no notion of HTTP.
//
// The Service owns everything a long-running deployment needs regardless of
// how requests arrive: the two-tier session store (live in-memory cache over
// an optional durable persist.Store, with asynchronous write-behind, lazy
// hydration and TTL eviction-to-disk), the process-wide par.Budget worker
// pool shared by all sessions' tree builds, reservation-before-build load
// shedding, and graceful close (drain the persister, flush, release).
//
// Transports are thin codecs over this core: internal/server decodes HTTP
// requests into these calls and encodes the results (mapping the typed
// errors to statuses in exactly one place), and the public crowdtopk/sdk
// package exposes the same lifecycle to in-process embedders with no server
// at all. Both speak to the same Service, so behavior cannot drift between
// them — the parity suite in internal/server pins that.
package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"time"

	"crowdtopk/internal/dataset"
	"crowdtopk/internal/dist"
	"crowdtopk/internal/obs"
	"crowdtopk/internal/par"
	"crowdtopk/internal/pcache"
	"crowdtopk/internal/persist"
	"crowdtopk/internal/selection"
	"crowdtopk/internal/session"
	"crowdtopk/internal/tpo"
)

// Config tunes the service core.
type Config struct {
	// Workers is the process-wide worker budget shared by every session's
	// tree builds and extensions (0 = GOMAXPROCS).
	Workers int
	// TTL evicts sessions idle longer than this (0 = never evict). With a
	// durable backend eviction moves the session to disk; without one it
	// drops the session for good.
	TTL time.Duration
	// MaxSessions bounds live in-memory sessions; creates beyond it fail
	// with ErrFull (0 = unbounded). Lazy hydration of persisted sessions is
	// exempt: a session returning from disk is served, not shed.
	MaxSessions int
	// Persist optionally attaches a durable session store. The service owns
	// it from then on: Close flushes and closes it.
	Persist persist.Store
	// Logger receives structured operational logs: boot scan, recovery,
	// hydration, persist failures, evictions. nil disables logging.
	Logger *slog.Logger
	// Audit optionally attaches an answer audit log: the service emits one
	// event per accepted answer batch and owns the log from then on (Close
	// drains it).
	Audit *obs.AuditLog
	// RateLimit admits at most this many requests per second per client
	// through Admit, sustained, with RateBurst headroom (0 = unlimited).
	RateLimit float64
	// RateBurst is the per-client token-bucket depth (0 = one second's worth
	// of RateLimit, at least 1).
	RateBurst int
	// MaxInflight caps concurrently admitted requests across all clients;
	// excess requests fail fast with ErrOverloaded instead of queueing into
	// the shared worker pool (0 = uncapped).
	MaxInflight int
	// ShutdownTimeout bounds how long Close waits for the final durable
	// drain (0 = DefaultShutdownTimeout). A wedged backend must not hang
	// SIGTERM forever; sessions still dirty at the deadline are abandoned
	// with a logged list of ids.
	ShutdownTimeout time.Duration
	// Tracer optionally attaches the request tracer: every operation then
	// records a span tree (service op, session transitions, selection
	// phases, hydration), slow requests are logged with their breakdown and
	// audited with the trace id, and /metrics gains per-component self-time
	// histograms. nil (or a rate-0 tracer) disables tracing.
	Tracer *obs.Tracer
	// EnablePprof is consumed by HTTP transports (internal/server) to mount
	// net/http/pprof under /debug/pprof; the service core ignores it. It
	// lives here because the server's Config is this struct verbatim.
	EnablePprof bool
}

// DefaultTTL is the idle eviction default used by the serve subcommand and
// the SDK.
const DefaultTTL = 30 * time.Minute

// DefaultShutdownTimeout bounds the Close-time durable drain when
// Config.ShutdownTimeout is zero.
const DefaultShutdownTimeout = 10 * time.Second

// ErrBadInput reports a request the service cannot act on: a malformed
// answer batch, an out-of-range argument. Transports map it to their
// invalid-argument failure (HTTP 400).
var ErrBadInput = errors.New("service: invalid argument")

// BatchError reports an answer batch that failed partway: Accepted answers
// were applied (and stay applied) before Err stopped the batch. Unwrap
// exposes Err so errors.Is/As classify the batch by its cause.
type BatchError struct {
	Accepted int
	Err      error
}

func (e *BatchError) Error() string {
	return fmt.Sprintf("%v (after %d accepted answers)", e.Err, e.Accepted)
}

func (e *BatchError) Unwrap() error { return e.Err }

// StorageError reports a durable-tier failure (hydration I/O, on-disk
// corruption). It is typed so transports can report a server-side fault even
// when the wrapped cause would otherwise classify as client input — a
// corrupted snapshot must not convince anyone the request was wrong.
type StorageError struct {
	Op  string
	Err error
}

func (e *StorageError) Error() string { return fmt.Sprintf("service: %s: %v", e.Op, e.Err) }

func (e *StorageError) Unwrap() error { return e.Err }

// ErrQuarantined is the errors.Is target for requests against a session
// whose durable copy was corrupt and has been moved to the quarantine area.
// Unlike a transient StorageError the condition is permanent until an
// operator intervenes (fsck, restore from the quarantine dir, or delete), so
// transports map it to a "gone" failure rather than a retryable 5xx.
var ErrQuarantined = errors.New("service: session quarantined")

// QuarantinedError identifies which session is quarantined and why (one of
// the persist.Reason* constants).
type QuarantinedError struct {
	ID     string
	Reason string
}

func (e *QuarantinedError) Error() string {
	return fmt.Sprintf("service: session %s quarantined (%s): durable copy is unrecoverable", e.ID, e.Reason)
}

// Is makes errors.Is(err, ErrQuarantined) true for every QuarantinedError.
func (e *QuarantinedError) Is(target error) bool { return target == ErrQuarantined }

// Service is the engine-facing session core. Create one with New and Close
// it when done; all methods are safe for concurrent use.
type Service struct {
	store  *store
	pool   *par.Budget
	gate   *gate
	audit  *obs.AuditLog
	log    *slog.Logger
	tracer *obs.Tracer
}

// New builds a service with its own session store and worker budget. With
// cfg.Persist set it also scans the backend so every persisted session is
// immediately addressable (sessions hydrate lazily on first access), and
// takes ownership of the backend. The new service also claims the
// process-wide metric collectors (sessions, pool, π-cache, persistence).
func New(cfg Config) (*Service, error) {
	logger := cfg.Logger
	if logger == nil {
		logger = obs.NopLogger()
	}
	// Breaker transitions are operator-grade events: counted, and written to
	// the audit log so a degraded-mode episode leaves a durable trace next
	// to the answers it may have delayed.
	onBreaker := func(from, to string) {
		mBreakerTransitions.With(to).Inc()
		if cfg.Audit != nil {
			cfg.Audit.Log(auditBreakerEvent{
				Time: time.Now().UTC().Format(time.RFC3339Nano),
				Kind: "degraded_mode",
				From: from,
				To:   to,
			})
		}
	}
	st, err := newStore(cfg.TTL, cfg.MaxSessions, cfg.Persist, logger, cfg.ShutdownTimeout, onBreaker)
	if err != nil {
		return nil, err
	}
	s := &Service{
		store:  st,
		pool:   par.NewBudget(cfg.Workers),
		gate:   newGate(cfg.RateLimit, cfg.RateBurst, cfg.MaxInflight),
		audit:  cfg.Audit,
		log:    logger,
		tracer: cfg.Tracer,
	}
	if s.tracer.Enabled() {
		s.tracer.SetOnSlow(s.onSlowTrace)
	}
	s.registerCollectors()
	return s, nil
}

// Tracer returns the attached request tracer (nil when tracing is off).
// Transports start their root spans through it and serve its trace ring.
func (s *Service) Tracer() *obs.Tracer { return s.tracer }

// onSlowTrace is the tracer's slow-request callback: the full span breakdown
// goes to the structured log, and — when an audit log is attached — a
// slow_request event joins the trace id to the durable audit stream.
func (s *Service) onSlowTrace(td obs.TraceData) {
	breakdown := obs.SelfTimeBreakdown(td)
	s.log.Warn("slow request",
		"trace", td.TraceID,
		"route", td.Route,
		"status", td.Status,
		"duration_ms", td.DurationMS,
		"spans", len(td.Spans),
		"breakdown", obs.FormatBreakdown(breakdown),
	)
	if s.audit != nil {
		s.audit.Log(auditSlowEvent{
			Time:       time.Now().UTC().Format(time.RFC3339Nano),
			Kind:       "slow_request",
			Trace:      td.TraceID,
			Route:      td.Route,
			Status:     td.Status,
			DurationMS: td.DurationMS,
			Breakdown:  breakdown,
		})
	}
}

// auditSlowEvent is the audit-log record for a slow request: the trace id
// joins it to the retained trace in /debug/traces and to the request's
// access-log line.
type auditSlowEvent struct {
	Time       string             `json:"time"`
	Kind       string             `json:"kind"` // "slow_request"
	Trace      string             `json:"trace"`
	Route      string             `json:"route,omitempty"`
	Status     int                `json:"status,omitempty"`
	DurationMS float64            `json:"duration_ms"`
	Breakdown  map[string]float64 `json:"breakdown_ms"`
}

// Close stops background eviction, flushes every dirty session to the
// durable backend (when one is configured) and closes it, drops all live
// sessions, then drains the audit log. Idempotent.
func (s *Service) Close() {
	s.store.close()
	if s.audit != nil {
		s.audit.Close()
	}
}

// Flush synchronously pushes every pending durable write to the backend and
// syncs it. A no-op without a backend.
func (s *Service) Flush() { s.store.flush() }

// SessionCount reports the number of live (in-memory) sessions.
func (s *Service) SessionCount() int { return s.store.len() }

// Admit runs the admission decision for one request from client: the
// per-client token bucket first, then the global max-inflight cap. On
// success the returned release must be called when the request finishes; on
// failure release is nil and the error is a *RateLimitError (client over its
// sustained rate; carries RetryAfter) or ErrOverloaded (server at capacity).
// With neither mechanism configured every request is admitted for free.
func (s *Service) Admit(client string) (release func(), err error) {
	if s.gate == nil {
		return func() {}, nil
	}
	release, err = s.gate.admit(client)
	if err != nil {
		reason := "inflight"
		if errors.Is(err, ErrRateLimited) {
			reason = "rate"
		}
		mAdmissionRejected.With(reason).Inc()
	}
	return release, err
}

// HealthView is the health/readiness snapshot. Ready is the conjunction the
// serving layer reports on GET /ready: the durable backend's boot scan
// completed, the session pool has capacity for another create, the most
// recent durable write did not fail, and the durable tier's circuit breaker
// is closed.
type HealthView struct {
	Ready           bool `json:"ready"`
	BootScanDone    bool `json:"boot_scan_done"`
	PoolSaturated   bool `json:"pool_saturated"`
	PersistErroring bool `json:"persist_erroring"`
	// DegradedMode: the durable-tier breaker is open (or probing): the
	// service serves from the live tier, queues dirty sessions, and refuses
	// evictions until the backend heals.
	DegradedMode bool     `json:"degraded_mode"`
	BreakerState string   `json:"breaker_state,omitempty"`
	Reasons      []string `json:"reasons,omitempty"`
	// Build identity, mirroring the crowdtopk_build_info gauge on /metrics:
	// the probe and the scrape agree on which binary answered.
	Version   string `json:"version"`
	GoVersion string `json:"go_version"`
	Revision  string `json:"revision,omitempty"`
}

// Health reports liveness-adjacent readiness state. It is cheap enough to
// probe every second.
func (s *Service) Health() HealthView {
	bi := obs.GetBuildInfo()
	h := HealthView{
		Version:         bi.Version,
		GoVersion:       bi.GoVersion,
		Revision:        bi.Revision,
		BootScanDone:    s.store.bootScanned.Load(),
		PoolSaturated:   s.store.saturated(),
		PersistErroring: s.store.persistFailing.Load(),
		DegradedMode:    s.store.degraded(),
		BreakerState:    s.store.breakerState(),
	}
	if !h.BootScanDone {
		h.Reasons = append(h.Reasons, "store boot scan in progress")
	}
	if h.PoolSaturated {
		h.Reasons = append(h.Reasons, "session pool saturated")
	}
	if h.PersistErroring {
		h.Reasons = append(h.Reasons, "durable writes failing")
	}
	if h.DegradedMode {
		h.Reasons = append(h.Reasons, "durable tier degraded (circuit breaker "+h.BreakerState+")")
	}
	h.Ready = len(h.Reasons) == 0
	return h
}

// WriteMetrics renders the process-wide metrics registry in Prometheus text
// exposition format — the one body both GET /metrics and the SDK's
// Client.Metrics() serve.
func (s *Service) WriteMetrics(w io.Writer) error {
	return obs.Default.WritePrometheus(w)
}

// ---- typed requests and views ----
//
// The view structs carry the canonical wire field names in their JSON tags:
// the HTTP codec encodes them directly, so the public API surface is defined
// here once and pinned by internal/server's wire golden test.

// CreateRequest creates a session from a dataset — given either as wire
// specs (Tuples, the HTTP path) or as kernel distributions (Dists, the
// in-process path; used when Tuples is empty) — or, when Checkpoint is set,
// restores one from a session envelope (the other fields are then ignored:
// the envelope carries its own configuration).
type CreateRequest struct {
	Tuples       []dataset.DistSpec
	Dists        []dist.Distribution
	Names        []string
	K            int
	Budget       int
	Algorithm    string
	Measure      string
	Reliability  float64
	RoundSize    int
	Seed         int64
	GridSize     int
	MaxOrderings int
	Checkpoint   []byte
}

// SessionInfo describes a session right after creation.
type SessionInfo struct {
	ID        string        `json:"id"`
	State     session.State `json:"state"`
	Tuples    int           `json:"tuples"`
	Asked     int           `json:"asked"`
	Budget    int           `json:"budget"`
	Pending   int           `json:"pending"`
	Orderings int           `json:"orderings"`
}

// Question is one pending crowd task, with a rendered prompt.
type Question struct {
	I      int    `json:"i"`
	J      int    `json:"j"`
	Prompt string `json:"prompt"`
}

// QuestionsView is the question-delivery response: the pending questions
// plus the lifecycle snapshot they were captured under.
type QuestionsView struct {
	State     session.State `json:"state"`
	Questions []Question    `json:"questions"`
	Asked     int           `json:"asked"`
	Budget    int           `json:"budget"`
}

// Answer is one crowd answer to an issued question: Yes means I ranks
// above J.
type Answer struct {
	I, J int
	Yes  bool
}

// AnswersView acknowledges a fully accepted answer batch.
type AnswersView struct {
	State          session.State `json:"state"`
	Accepted       int           `json:"accepted"`
	Asked          int           `json:"asked"`
	Pending        int           `json:"pending"`
	Contradictions int           `json:"contradictions"`
}

// ResultView is the current top-K belief.
type ResultView struct {
	State          session.State `json:"state"`
	Ranking        []int         `json:"ranking"`
	Names          []string      `json:"names"`
	Resolved       bool          `json:"resolved"`
	Orderings      int           `json:"orderings"`
	Uncertainty    float64       `json:"uncertainty"`
	Asked          int           `json:"asked"`
	Budget         int           `json:"budget"`
	Pending        int           `json:"pending"`
	Contradictions int           `json:"contradictions"`
}

// ListView is one page of the session listing.
type ListView struct {
	Sessions []ListEntry `json:"sessions"`
	// Total is the number of known sessions, which may exceed the page.
	Total int `json:"total"`
}

// ListEntry is one row of the session listing.
type ListEntry struct {
	ID string `json:"id"`
	// State and Asked/Pending are reported for live sessions only: reading
	// them off a disk-resident session would force the hydration the
	// listing exists to avoid.
	State       session.State `json:"state,omitempty"`
	Asked       int           `json:"asked,omitempty"`
	Pending     int           `json:"pending,omitempty"`
	IdleSeconds float64       `json:"idle_seconds"`
	Persisted   bool          `json:"persisted"`
	Hydrated    bool          `json:"hydrated"`
	// PersistError is the session's most recent durable-write failure, empty
	// after a successful persist — the signal that finds stuck-dirty
	// sessions without grepping logs.
	PersistError string `json:"persist_error,omitempty"`
	// QuarantineReason is set (with State "quarantined") when the session's
	// durable copy was corrupt and has been moved to the quarantine area:
	// one of corrupt-snapshot, missing-snapshot, corrupt-wal, unreadable.
	QuarantineReason string `json:"quarantine_reason,omitempty"`
}

// StateQuarantined is the listing state for sessions whose durable copy has
// been quarantined; it never appears in session lifecycle transitions.
const StateQuarantined session.State = "quarantined"

// StoreStats is the stats view of the session store's two tiers.
type StoreStats struct {
	// Backend names the durable tier: "memory" (none) or "file".
	Backend string `json:"backend"`
	// LiveSessions counts hydrated in-memory sessions; KnownSessions adds
	// the ones resident only in the durable backend.
	LiveSessions  int `json:"live_sessions"`
	KnownSessions int `json:"known_sessions"`
	// DirtySessions counts sessions with accepted answers awaiting their
	// asynchronous durable write (0 means everything acked is on disk).
	DirtySessions   int    `json:"dirty_sessions"`
	EvictionsToDisk uint64 `json:"evictions_to_disk"`
	HydrationHits   uint64 `json:"hydration_hits"`
	HydrationMisses uint64 `json:"hydration_misses"`
	PersistErrors   uint64 `json:"persist_errors"`
	// PersistRetries counts durable-write attempts that were retries of a
	// failure; EvictionsRefused counts evictions the janitor refused because
	// the session's acked answers were not yet durable.
	PersistRetries   uint64 `json:"persist_retries"`
	EvictionsRefused uint64 `json:"evictions_refused"`
	// DegradedMode mirrors the durable-tier breaker being non-closed;
	// BreakerState is its state name (absent in memory-only mode).
	DegradedMode bool   `json:"degraded_mode"`
	BreakerState string `json:"breaker_state,omitempty"`
	// QuarantinedSessions counts known sessions whose durable copies sit in
	// the quarantine area.
	QuarantinedSessions int `json:"quarantined_sessions"`
	// Persist carries the backend's own counters (snapshots, wal_appends,
	// replays, recovered_sessions, fsyncs); absent in memory-only mode.
	Persist *persist.CounterSnapshot `json:"persist,omitempty"`
}

// Stats is the full operational snapshot.
type Stats struct {
	Sessions int        `json:"sessions"`
	Store    StoreStats `json:"store"`
	// PCache carries the π-cache counters cumulative since the last cache
	// reset; its hit_rate is the lifetime average, which barely moves on a
	// long-lived server no matter what the cache is doing right now.
	PCache pcache.Snapshot `json:"pcache"`
	// PCacheWindow reports hits/misses/hit_rate over the interval since the
	// previous Stats call (each call closes the window and opens the next),
	// so the rate tracks current behavior after churn. The window is
	// process-global: with several scrapers, each sees the interval since
	// whoever asked last.
	PCacheWindow pcache.WindowSnapshot `json:"pcache_window"`
	// LiveEngine carries the live selection-engine counters: arena reuses
	// vs rebuilds, reuses that dropped leaves (compactions) and
	// invalidations.
	LiveEngine selection.LiveCounters `json:"selection_live"`
}

// ---- operations ----

// CreateOrRestore builds a session from the request's dataset, or restores
// one from its checkpoint envelope, registers it under a fresh id and
// returns its initial state. Store capacity is claimed before the build so
// load shedding (ErrFull) happens before the expensive tree construction
// rather than after it.
func (s *Service) CreateOrRestore(ctx context.Context, req CreateRequest) (SessionInfo, error) {
	ctx, sp := obs.StartSpan(ctx, "service.create")
	defer sp.End()
	if err := s.store.reserve(); err != nil {
		return SessionInfo{}, err
	}
	var sess *session.Session
	var err error
	// The build span covers session.New (pcache prewarm, tree build, first
	// plan) or session.Restore (checkpoint decode, prewarm, tree rebuild).
	// On catalog-shaped creates the build and the first plan dominate; the
	// prewarm is under 2 % of the span.
	bctx, bsp := obs.StartSpan(ctx, "session.build")
	if len(req.Checkpoint) > 0 {
		bsp.SetAttr("origin", "restore")
		sess, err = session.Restore(bytes.NewReader(req.Checkpoint), s.pool)
	} else {
		bsp.SetAttr("origin", "fresh")
		bsp.SetAttr("tuples", len(req.Tuples)+len(req.Dists))
		sess, err = s.createSessionCtx(bctx, &req)
	}
	bsp.End()
	if err != nil {
		s.store.unreserve()
		return SessionInfo{}, err
	}
	id, err := s.store.add(sess)
	if err != nil {
		return SessionInfo{}, err
	}
	origin := "fresh"
	if len(req.Checkpoint) > 0 {
		origin = "restore"
	}
	mSessionsCreated.With(origin).Inc()
	info := s.info(id, sess)
	mTransitions.With(string(info.State)).Inc()
	sp.SetAttr("session", id)
	s.log.Info("session created", "session", id, "origin", origin,
		"tuples", info.Tuples, "state", string(info.State),
		"trace", obs.TraceIDFrom(ctx))
	return info, nil
}

// createSessionCtx builds a fresh session from the request's dataset fields.
func (s *Service) createSessionCtx(ctx context.Context, req *CreateRequest) (*session.Session, error) {
	dists := req.Dists
	if len(dists) == 0 {
		var err error
		dists, err = dataset.FromSpecs(req.Tuples)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", session.ErrInvalidConfig, err)
		}
	}
	return session.NewCtx(ctx, session.Config{
		Dists:       dists,
		Names:       req.Names,
		K:           req.K,
		Budget:      req.Budget,
		Algorithm:   req.Algorithm,
		Measure:     req.Measure,
		Reliability: req.Reliability,
		RoundSize:   req.RoundSize,
		Seed:        req.Seed,
		Build:       tpo.BuildOptions{GridSize: req.GridSize, MaxLeaves: req.MaxOrderings},
		Pool:        s.pool,
	})
}

func (s *Service) info(id string, sess *session.Session) SessionInfo {
	st := sess.Status()
	return SessionInfo{
		ID:        id,
		State:     st.State,
		Tuples:    sess.Len(),
		Asked:     st.Asked,
		Budget:    st.Budget,
		Pending:   st.Pending,
		Orderings: sess.Orderings(),
	}
}

// Questions returns up to n pending questions (n < 1 returns all) with
// rendered prompts. Questions and lifecycle state come from one locked
// snapshot, so a concurrent answer cannot pair fresh questions with a
// terminal state.
func (s *Service) Questions(ctx context.Context, id string, n int) (QuestionsView, error) {
	ctx, sp := obs.StartSpan(ctx, "service.questions")
	defer sp.End()
	sp.SetAttr("session", id)
	sess, err := s.store.get(ctx, id)
	if err != nil {
		return QuestionsView{}, err
	}
	qs, st, err := sess.NextQuestions(n)
	if err != nil {
		return QuestionsView{}, err
	}
	out := QuestionsView{State: st.State, Asked: st.Asked, Budget: st.Budget, Questions: []Question{}}
	for _, q := range qs {
		out.Questions = append(out.Questions, Question{
			I:      q.I,
			J:      q.J,
			Prompt: fmt.Sprintf("does %s rank above %s?", sess.Name(q.I), sess.Name(q.J)),
		})
	}
	mQuestionsServed.Add(uint64(len(out.Questions)))
	sp.SetAttr("questions", len(out.Questions))
	return out, nil
}

// Answers applies a batch of crowd answers in order. A batch that fails
// partway returns a *BatchError carrying how many answers were applied
// before the failure, so the caller can reconcile; the applied answers stay
// applied. Every batch with at least one accepted answer also emits one
// asynchronous audit event (session, answers, outcome, residual delta) when
// an audit log is attached — auditing never blocks the answer path.
func (s *Service) Answers(ctx context.Context, id string, answers []Answer) (AnswersView, error) {
	ctx, sp := obs.StartSpan(ctx, "service.answers")
	defer sp.End()
	sp.SetAttr("session", id)
	sp.SetAttr("batch", len(answers))
	sess, err := s.store.get(ctx, id)
	if err != nil {
		return AnswersView{}, err
	}
	if len(answers) == 0 {
		return AnswersView{}, fmt.Errorf("%w: no answers in request", ErrBadInput)
	}
	before := sess.Status()
	orderingsBefore := sess.Orderings()
	accepted := 0
	var batchErr error
	for _, a := range answers {
		if a.I == a.J {
			batchErr = &BatchError{Accepted: accepted,
				Err: fmt.Errorf("%w: answer %d compares tuple %d with itself", ErrBadInput, accepted, a.I)}
			break
		}
		if err := sess.SubmitAnswerCtx(ctx, tpo.Answer{Q: tpo.Question{I: a.I, J: a.J}, Yes: a.Yes}); err != nil {
			batchErr = &BatchError{Accepted: accepted, Err: err}
			break
		}
		accepted++
	}
	st := sess.Status()
	if accepted > 0 {
		mAnswersAccepted.Add(uint64(accepted))
		if d := st.Contradictions - before.Contradictions; d > 0 {
			mContradictions.Add(uint64(d))
		}
		if st.State != before.State {
			mTransitions.With(string(st.State)).Inc()
		}
	}
	sp.SetAttr("accepted", accepted)
	s.auditAnswers(ctx, id, answers, accepted, before, st, orderingsBefore, sess.Orderings(), batchErr)
	if batchErr != nil {
		return AnswersView{}, batchErr
	}
	return AnswersView{
		State:          st.State,
		Accepted:       accepted,
		Asked:          st.Asked,
		Pending:        st.Pending,
		Contradictions: st.Contradictions,
	}, nil
}

// auditAnswerEvent is the audit-log record for one answer batch: the spend
// event of the crowd budget. OrderingsBefore/After is the residual delta —
// how much of the candidate-ordering space this batch eliminated.
type auditAnswerEvent struct {
	Time            string        `json:"time"`
	Kind            string        `json:"kind"`
	Session         string        `json:"session"`
	Answers         []auditAnswer `json:"answers"`
	Accepted        int           `json:"accepted"`
	State           string        `json:"state"`
	Asked           int           `json:"asked"`
	Contradictions  int           `json:"contradictions"`
	OrderingsBefore int           `json:"orderings_before"`
	OrderingsAfter  int           `json:"orderings_after"`
	Error           string        `json:"error,omitempty"`
	// Trace joins the event to the request's retained trace and access-log
	// line; empty for untraced requests.
	Trace string `json:"trace,omitempty"`
}

type auditAnswer struct {
	I   int  `json:"i"`
	J   int  `json:"j"`
	Yes bool `json:"yes"`
}

// auditBreakerEvent is the audit-log record for a durable-tier circuit
// breaker transition: when the service entered or left degraded mode and
// through which states.
type auditBreakerEvent struct {
	Time string `json:"time"`
	Kind string `json:"kind"` // "degraded_mode"
	From string `json:"from"`
	To   string `json:"to"`
}

// auditAnswers emits the batch's audit event. Enqueueing never blocks; a
// stalled sink drops events and counts the loss.
func (s *Service) auditAnswers(ctx context.Context, id string, answers []Answer, accepted int,
	before, after session.Status, ordBefore, ordAfter int, batchErr error) {
	if s.audit == nil || accepted == 0 {
		return
	}
	ev := auditAnswerEvent{
		Trace:           obs.TraceIDFrom(ctx),
		Time:            time.Now().UTC().Format(time.RFC3339Nano),
		Kind:            "answers",
		Session:         id,
		Answers:         make([]auditAnswer, 0, len(answers)),
		Accepted:        accepted,
		State:           string(after.State),
		Asked:           after.Asked,
		Contradictions:  after.Contradictions - before.Contradictions,
		OrderingsBefore: ordBefore,
		OrderingsAfter:  ordAfter,
	}
	for _, a := range answers {
		ev.Answers = append(ev.Answers, auditAnswer{I: a.I, J: a.J, Yes: a.Yes})
	}
	if batchErr != nil {
		ev.Error = batchErr.Error()
	}
	s.audit.Log(ev)
}

// Result reports the session's current top-K belief (valid in every state).
func (s *Service) Result(ctx context.Context, id string) (ResultView, error) {
	ctx, sp := obs.StartSpan(ctx, "service.result")
	defer sp.End()
	sp.SetAttr("session", id)
	sess, err := s.store.get(ctx, id)
	if err != nil {
		return ResultView{}, err
	}
	_, rsp := obs.StartSpan(ctx, "session.result")
	res := sess.Result()
	rsp.End()
	names := make([]string, len(res.Ranking))
	for i, tid := range res.Ranking {
		names[i] = sess.Name(tid)
	}
	return ResultView{
		State:          res.State,
		Ranking:        append([]int{}, res.Ranking...),
		Names:          names,
		Resolved:       res.Resolved,
		Orderings:      res.Orderings,
		Uncertainty:    res.Uncertainty,
		Asked:          res.Asked,
		Budget:         res.Budget,
		Pending:        res.Pending,
		Contradictions: res.Contradictions,
	}, nil
}

// Checkpoint writes the session's versioned JSON envelope to w. Callers
// serving slow sinks should buffer: the write happens under the session
// lock, and backpressure would pin it.
func (s *Service) Checkpoint(ctx context.Context, id string, w io.Writer) error {
	ctx, sp := obs.StartSpan(ctx, "service.checkpoint")
	defer sp.End()
	sp.SetAttr("session", id)
	sess, err := s.store.get(ctx, id)
	if err != nil {
		return err
	}
	_, csp := obs.StartSpan(ctx, "session.checkpoint")
	defer csp.End()
	return sess.Checkpoint(w)
}

// Delete drops the session from every tier. Deleting an unknown id returns
// ErrNotFound.
func (s *Service) Delete(ctx context.Context, id string) error {
	_, sp := obs.StartSpan(ctx, "service.delete")
	defer sp.End()
	sp.SetAttr("session", id)
	if !s.store.remove(id) {
		return ErrNotFound
	}
	return nil
}

// DefaultListLimit bounds List pages when the caller does not choose a
// limit; against a store with millions of persisted sessions an unbounded
// listing would be an accidental denial of service.
const DefaultListLimit = 100

// List snapshots up to limit known sessions (limit < 1 applies
// DefaultListLimit), sorted by id for stable pagination. Live sessions
// carry their lifecycle counters; disk-resident ones are listed without
// forcing the hydration the listing exists to avoid.
func (s *Service) List(limit int) ListView {
	if limit < 1 {
		limit = DefaultListLimit
	}
	items, total := s.store.list(limit)
	out := ListView{Sessions: []ListEntry{}, Total: total}
	for _, it := range items {
		e := ListEntry{
			ID:           it.id,
			IdleSeconds:  it.idle.Seconds(),
			Persisted:    it.persisted,
			Hydrated:     it.hydrated,
			PersistError: it.persistErr,
		}
		if it.quarantined {
			e.State = StateQuarantined
			e.QuarantineReason = it.quarReason
		}
		// The session object was captured inside the store's listing
		// snapshot; resolving the id again here would race concurrent
		// deletes and evictions into rows marked hydrated but carrying no
		// state.
		if it.sess != nil {
			st := it.sess.Status()
			e.State = st.State
			e.Asked = st.Asked
			e.Pending = st.Pending
		}
		out.Sessions = append(out.Sessions, e)
	}
	return out
}

// Stats assembles the operational snapshot: store tiers, persistence
// counters, π-cache lifetime and window rates, live-engine counters.
func (s *Service) Stats() Stats {
	st := StoreStats{
		Backend:         "memory",
		LiveSessions:    s.store.len(),
		KnownSessions:   s.store.known(),
		EvictionsToDisk: s.store.evictions.Load(),
		HydrationHits:   s.store.hydraHits.Load(),
		HydrationMisses: s.store.hydraMisses.Load(),
		PersistErrors:   s.store.persistErrors.Load(),
	}
	if s.store.disk != nil {
		st.Backend = "file"
		st.DirtySessions = s.store.bg.pending()
		st.PersistRetries = s.store.bg.retryCount()
		st.EvictionsRefused = s.store.evictionsRefused.Load()
		st.DegradedMode = s.store.degraded()
		st.BreakerState = s.store.breakerState()
		st.QuarantinedSessions = s.store.quarantinedCount()
		c := s.store.disk.Counters()
		st.Persist = &c
	}
	return Stats{
		Sessions:     s.store.len(),
		Store:        st,
		PCache:       pcache.Stats(),
		PCacheWindow: pcache.WindowStats(),
		LiveEngine:   selection.LiveEngineStats(),
	}
}
