// Package sdk embeds the crowdtopk serving stack in-process: the same
// session lifecycle the HTTP API offers — create or restore, question
// delivery, answer intake, results, checkpoints, deletion, listing, stats —
// as direct Go calls on a Client, with no server, no sockets and no
// net/http anywhere in its API.
//
// A Client wraps the same transport-agnostic core (internal/service) that
// backs `crowdtopk serve`, so embedders get the full production behavior,
// not a toy: a concurrency-safe session store with TTL eviction, a shared
// worker budget across all sessions' tree builds, load shedding at the
// session cap, and — with Options.Storage — the durable two-tier store
// (write-ahead-logged answers, snapshot compaction, lazy hydration,
// eviction-to-disk, crash recovery on reopen). The parity suite in
// internal/server drives the HTTP e2e tests against this package too, so
// the two front doors cannot drift.
//
// Minimal lifecycle:
//
//	client, _ := sdk.New(sdk.Options{})
//	defer client.Close()
//	info, _ := client.CreateSession(sdk.SessionConfig{Dataset: ds, Query: crowdtopk.Query{K: 3, Budget: 20}})
//	for {
//		qs, _ := client.Questions(info.ID, 0)
//		if len(qs.Questions) == 0 {
//			break
//		}
//		for _, q := range qs.Questions {
//			ans := myCrowd.Ask(crowdtopk.Question{I: q.I, J: q.J})
//			client.SubmitAnswers(info.ID, ans)
//		}
//	}
//	res, _ := client.Result(info.ID)
//
// Use the root crowdtopk package instead when one synchronous query with a
// blocking Crowd callback is all you need (Process), or a single resumable
// session without ids, eviction or persistence (NewSession).
package sdk

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"time"

	crowdtopk "crowdtopk"
	"crowdtopk/internal/bridge"
	"crowdtopk/internal/persist"
	"crowdtopk/internal/service"
)

// Options tunes the embedded service core.
type Options struct {
	// Workers is the process-wide worker budget shared by every session's
	// tree builds and extensions (0 = all CPUs).
	Workers int
	// TTL evicts sessions idle longer than this (0 = never evict). With
	// Storage set, eviction moves the session to disk; without it the
	// session is dropped for good.
	TTL time.Duration
	// MaxSessions bounds live in-memory sessions; creates beyond it fail
	// with ErrFull (0 = unbounded).
	MaxSessions int
	// Storage optionally makes sessions durable on the local filesystem.
	Storage *Storage
	// Logger receives the core's structured operational logs (boot scan,
	// recovery, hydration, persist failures, evictions). nil disables
	// logging.
	Logger *slog.Logger
	// ShutdownTimeout bounds how long Close waits for the final durable
	// drain (0 = the service default of 10s). Sessions still dirty at the
	// deadline are abandoned with a logged list of ids — a wedged disk must
	// not hang the embedder's shutdown forever.
	ShutdownTimeout time.Duration
}

// Storage configures the durable file-backed session store: one directory
// per session holding a full snapshot plus a CRC-framed write-ahead log of
// the answers accepted since. Reopening a Client on the same directory
// recovers every persisted session, exactly like `crowdtopk serve
// -data-dir` does after a crash.
type Storage struct {
	// Dir is the data directory; sessions live under Dir/sessions/<id>/.
	Dir string
	// Fsync is the WAL durability policy: "always" (default — every WAL
	// append is fsynced, so an answer survives power loss once the
	// background persister has written it; answers are acknowledged before
	// that write) or "none" (page cache, flushed on Close).
	Fsync string
	// SnapshotEvery compacts a session's WAL into a fresh snapshot after
	// this many appended answers (0 = the store default).
	SnapshotEvery int
}

// Typed failures, for errors.Is. Session-level causes surface as the root
// package's errors (crowdtopk.ErrSessionDone, crowdtopk.ErrUnknownQuestion).
var (
	// ErrNotFound reports a session id the client does not hold (never
	// created, deleted, or evicted without durable storage).
	ErrNotFound = service.ErrNotFound
	// ErrFull reports that the client is at its MaxSessions capacity.
	ErrFull = service.ErrFull
	// ErrQuarantined reports a session whose durable copy was corrupt and
	// has been moved to the data dir's quarantine area. Unlike a transient
	// storage fault the condition is permanent until an operator intervenes
	// (crowdtopk fsck, restore from quarantine/, or Delete).
	ErrQuarantined = service.ErrQuarantined
)

// BatchError reports an answer batch that failed partway: Accepted answers
// were applied (and stay applied) before Err stopped the batch. Unwrap
// exposes Err so errors.Is classifies the batch by its cause.
type BatchError struct {
	Accepted int
	Err      error
}

func (e *BatchError) Error() string {
	return fmt.Sprintf("%v (after %d accepted answers)", e.Err, e.Accepted)
}

func (e *BatchError) Unwrap() error { return e.Err }

// Client is an in-process crowdtopk service. Create one with New; Close it
// when done (stopping background eviction and, with Storage, flushing every
// acknowledged answer to disk). All methods are safe for concurrent use.
type Client struct {
	svc *service.Service
}

// New builds a Client. With Options.Storage set it scans the directory so
// every previously persisted session is immediately addressable (sessions
// hydrate lazily on first access).
func New(opts Options) (*Client, error) {
	cfg := service.Config{
		Workers:         opts.Workers,
		TTL:             opts.TTL,
		MaxSessions:     opts.MaxSessions,
		Logger:          opts.Logger,
		ShutdownTimeout: opts.ShutdownTimeout,
	}
	if opts.Storage != nil {
		policy := persist.SyncAlways
		if opts.Storage.Fsync != "" {
			var err error
			if policy, err = persist.ParseSyncPolicy(opts.Storage.Fsync); err != nil {
				return nil, fmt.Errorf("sdk: %w", err)
			}
		}
		store, err := persist.NewFile(persist.FileOptions{
			Dir:           opts.Storage.Dir,
			SnapshotEvery: opts.Storage.SnapshotEvery,
			Sync:          policy,
		})
		if err != nil {
			return nil, fmt.Errorf("sdk: opening storage: %w", err)
		}
		cfg.Persist = store
	}
	svc, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Client{svc: svc}, nil
}

// Close stops background eviction, flushes every dirty session to durable
// storage (when configured) and releases it. Idempotent.
func (c *Client) Close() { c.svc.Close() }

// Flush synchronously pushes every pending durable write to storage and
// syncs it — the durability barrier under Fsync "none". A no-op without
// Storage.
func (c *Client) Flush() { c.svc.Flush() }

// SessionCount reports the number of live (in-memory) sessions.
func (c *Client) SessionCount() int { return c.svc.SessionCount() }

// SessionConfig describes a new session.
type SessionConfig struct {
	// Dataset is the uncertain-score relation to query (required).
	Dataset *crowdtopk.Dataset
	// Query tunes K, Budget, Algorithm, Measure, RoundSize, GridSize,
	// MaxOrderings and Seed exactly as crowdtopk.Process does.
	// Query.Workers is ignored: sessions share the Client's worker budget.
	Query crowdtopk.Query
	// Reliability is the probability a submitted answer is correct: 1 —
	// and, for convenience, 0 — trusts answers outright, values in (0, 1)
	// apply the paper's Bayesian reweighting.
	Reliability float64
}

// SessionInfo describes a session right after creation or restore.
type SessionInfo struct {
	ID        string
	State     crowdtopk.SessionState
	Tuples    int
	Asked     int
	Budget    int
	Pending   int
	Orderings int
}

// CreateSession starts a managed asynchronous top-K query and returns its
// id and initial state. Creates beyond MaxSessions fail with ErrFull before
// any tree is built.
func (c *Client) CreateSession(cfg SessionConfig) (SessionInfo, error) {
	dists := bridge.DatasetDists(cfg.Dataset)
	if len(dists) == 0 {
		return SessionInfo{}, fmt.Errorf("sdk: nil or empty dataset")
	}
	info, err := c.svc.CreateOrRestore(context.Background(), service.CreateRequest{
		Dists:        dists,
		Names:        bridge.DatasetNames(cfg.Dataset),
		K:            cfg.Query.K,
		Budget:       cfg.Query.Budget,
		Algorithm:    string(cfg.Query.Algorithm),
		Measure:      string(cfg.Query.Measure),
		Reliability:  cfg.Reliability,
		RoundSize:    cfg.Query.RoundSize,
		Seed:         cfg.Query.Seed,
		GridSize:     cfg.Query.GridSize,
		MaxOrderings: cfg.Query.MaxOrderings,
	})
	if err != nil {
		return SessionInfo{}, err
	}
	return sessionInfo(info), nil
}

// RestoreSession resumes a session from a checkpoint envelope (produced by
// Checkpoint here, by the HTTP API, or by crowdtopk.Session.Checkpoint) and
// registers it under a fresh id. The envelope is self-contained and
// verified against its schema version and dataset digest.
func (c *Client) RestoreSession(checkpoint []byte) (SessionInfo, error) {
	if len(checkpoint) == 0 {
		return SessionInfo{}, fmt.Errorf("sdk: empty checkpoint")
	}
	info, err := c.svc.CreateOrRestore(context.Background(), service.CreateRequest{Checkpoint: checkpoint})
	if err != nil {
		return SessionInfo{}, err
	}
	return sessionInfo(info), nil
}

func sessionInfo(info service.SessionInfo) SessionInfo {
	return SessionInfo{
		ID:        info.ID,
		State:     crowdtopk.SessionState(info.State),
		Tuples:    info.Tuples,
		Asked:     info.Asked,
		Budget:    info.Budget,
		Pending:   info.Pending,
		Orderings: info.Orderings,
	}
}

// Question is one pending crowd task, with a prompt rendered through the
// dataset's tuple names.
type Question struct {
	I, J   int
	Prompt string
}

// Questions is the question-delivery view: the pending questions plus the
// lifecycle snapshot they were captured under.
type Questions struct {
	State     crowdtopk.SessionState
	Questions []Question
	Asked     int
	Budget    int
}

// Questions returns up to n pending questions (n < 1 returns all). The call
// is idempotent: questions stay pending until answered, so a crashed
// embedder pulls the same work again.
func (c *Client) Questions(id string, n int) (Questions, error) {
	view, err := c.svc.Questions(context.Background(), id, n)
	if err != nil {
		return Questions{}, err
	}
	out := Questions{
		State:     crowdtopk.SessionState(view.State),
		Questions: make([]Question, len(view.Questions)),
		Asked:     view.Asked,
		Budget:    view.Budget,
	}
	for i, q := range view.Questions {
		out.Questions[i] = Question{I: q.I, J: q.J, Prompt: q.Prompt}
	}
	return out, nil
}

// Ack acknowledges a fully accepted answer batch.
type Ack struct {
	State          crowdtopk.SessionState
	Accepted       int
	Asked          int
	Pending        int
	Contradictions int
}

// SubmitAnswers applies crowd answers in order. A batch that fails partway
// returns a *BatchError carrying how many answers were applied before the
// failure; the applied answers stay applied. Causes classify with
// errors.Is: crowdtopk.ErrSessionDone, crowdtopk.ErrUnknownQuestion.
func (c *Client) SubmitAnswers(id string, answers ...crowdtopk.Answer) (Ack, error) {
	batch := make([]service.Answer, len(answers))
	for i, a := range answers {
		batch[i] = service.Answer{I: a.Q.I, J: a.Q.J, Yes: a.Yes}
	}
	view, err := c.svc.Answers(context.Background(), id, batch)
	if err != nil {
		var be *service.BatchError
		if errors.As(err, &be) {
			return Ack{}, &BatchError{Accepted: be.Accepted, Err: be.Err}
		}
		return Ack{}, err
	}
	return Ack{
		State:          crowdtopk.SessionState(view.State),
		Accepted:       view.Accepted,
		Asked:          view.Asked,
		Pending:        view.Pending,
		Contradictions: view.Contradictions,
	}, nil
}

// Result is the session's current top-K belief.
type Result struct {
	State          crowdtopk.SessionState
	Ranking        []int
	Names          []string
	Resolved       bool
	Orderings      int
	Uncertainty    float64
	Asked          int
	Budget         int
	Pending        int
	Contradictions int
}

// Result reports the current top-K belief. It is valid in every state:
// mid-query it reflects the answers absorbed so far.
func (c *Client) Result(id string) (Result, error) {
	view, err := c.svc.Result(context.Background(), id)
	if err != nil {
		return Result{}, err
	}
	return Result{
		State:          crowdtopk.SessionState(view.State),
		Ranking:        view.Ranking,
		Names:          view.Names,
		Resolved:       view.Resolved,
		Orderings:      view.Orderings,
		Uncertainty:    view.Uncertainty,
		Asked:          view.Asked,
		Budget:         view.Budget,
		Pending:        view.Pending,
		Contradictions: view.Contradictions,
	}, nil
}

// Checkpoint writes the session's versioned JSON envelope to w.
func (c *Client) Checkpoint(id string, w io.Writer) error {
	return c.svc.Checkpoint(context.Background(), id, w)
}

// Delete drops the session from memory and, with Storage, from disk.
// Deleting an unknown id returns ErrNotFound.
func (c *Client) Delete(id string) error { return c.svc.Delete(context.Background(), id) }

// ListEntry is one row of the session listing. State, Asked and Pending are
// populated for live (hydrated) sessions only: reading them off a
// disk-resident session would force the hydration the listing avoids.
type ListEntry struct {
	ID          string
	State       crowdtopk.SessionState
	Asked       int
	Pending     int
	IdleSeconds float64
	Persisted   bool
	Hydrated    bool
	// PersistError is the session's most recent durable-write failure, empty
	// once a write succeeds again — the per-session view of the store-wide
	// PersistErrors counter.
	PersistError string
	// QuarantineReason is set (with State "quarantined") when the session's
	// durable copy was corrupt and has been moved to the quarantine area.
	QuarantineReason string
}

// List is one page of the session listing.
type List struct {
	Sessions []ListEntry
	// Total is the number of known sessions, which may exceed the page.
	Total int
}

// List snapshots up to limit known sessions (limit < 1 applies the service
// default of 100), sorted by id, including sessions resident only on disk.
func (c *Client) List(limit int) List {
	view := c.svc.List(limit)
	out := List{Sessions: make([]ListEntry, len(view.Sessions)), Total: view.Total}
	for i, e := range view.Sessions {
		out.Sessions[i] = ListEntry{
			ID:               e.ID,
			State:            crowdtopk.SessionState(e.State),
			Asked:            e.Asked,
			Pending:          e.Pending,
			IdleSeconds:      e.IdleSeconds,
			Persisted:        e.Persisted,
			Hydrated:         e.Hydrated,
			PersistError:     e.PersistError,
			QuarantineReason: e.QuarantineReason,
		}
	}
	return out
}

// PersistStats carries the durable backend's own activity counters.
type PersistStats struct {
	Snapshots         uint64
	WALAppends        uint64
	Replays           uint64
	RecoveredSessions uint64
	Fsyncs            uint64
	TornWALTails      uint64
	Quarantines       uint64
}

// StoreStats describes the session store's two tiers.
type StoreStats struct {
	// Backend names the durable tier: "memory" (none) or "file".
	Backend string
	// LiveSessions counts hydrated in-memory sessions; KnownSessions adds
	// the ones resident only on disk.
	LiveSessions  int
	KnownSessions int
	// DirtySessions counts sessions with accepted answers awaiting their
	// asynchronous durable write (0 means everything acked is on disk).
	DirtySessions   int
	EvictionsToDisk uint64
	HydrationHits   uint64
	HydrationMisses uint64
	PersistErrors   uint64
	// PersistRetries counts durable-write attempts that were retries of an
	// earlier failure; EvictionsRefused counts evictions the janitor declined
	// because acked answers were not yet durable.
	PersistRetries   uint64
	EvictionsRefused uint64
	// DegradedMode is true while the durable-tier circuit breaker is
	// non-closed; BreakerState names the breaker state ("closed", "open",
	// "half-open") and is empty without Storage.
	DegradedMode bool
	BreakerState string
	// QuarantinedSessions counts known sessions whose durable copies sit in
	// the quarantine area.
	QuarantinedSessions int
	// Persist is nil without Storage.
	Persist *PersistStats
}

// Stats is the operational snapshot: session counts, store tiers,
// persistence activity and the π-cache hit rate.
type Stats struct {
	Sessions int
	Store    StoreStats
	// PCacheHitRate is the process-wide pairwise-probability cache's
	// lifetime hit rate in [0, 1].
	PCacheHitRate float64
}

// Metrics renders the process-wide metrics registry in Prometheus text
// exposition format — byte-for-byte the body the HTTP server serves on
// GET /metrics, so embedders can wire it to their own /metrics route or
// push gateway without running the server.
func (c *Client) Metrics() ([]byte, error) {
	var buf bytes.Buffer
	if err := c.svc.WriteMetrics(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Health is the readiness snapshot: Ready is the conjunction the HTTP
// server's GET /ready reports (boot scan done, pool has capacity, durable
// writes succeeding); the flags break down why, and Reasons repeats the
// failing conditions in words.
type Health struct {
	Ready           bool
	BootScanDone    bool
	PoolSaturated   bool
	PersistErroring bool
	// DegradedMode is true while the durable-tier circuit breaker is open or
	// half-open: reads serve from the live tier, dirty sessions queue for
	// retry, and Ready is false. BreakerState names the breaker state.
	DegradedMode bool
	BreakerState string
	Reasons      []string
	// Build identity of the embedding binary, mirroring /health and the
	// crowdtopk_build_info gauge on Metrics().
	Version   string
	GoVersion string
	Revision  string
}

// Health reports the client's readiness state — the same decision the HTTP
// server's /ready endpoint makes. Cheap enough to probe every second.
func (c *Client) Health() Health {
	h := c.svc.Health()
	return Health{
		Ready:           h.Ready,
		BootScanDone:    h.BootScanDone,
		PoolSaturated:   h.PoolSaturated,
		PersistErroring: h.PersistErroring,
		DegradedMode:    h.DegradedMode,
		BreakerState:    h.BreakerState,
		Reasons:         h.Reasons,
		Version:         h.Version,
		GoVersion:       h.GoVersion,
		Revision:        h.Revision,
	}
}

// Stats reports the client's operational counters.
func (c *Client) Stats() Stats {
	st := c.svc.Stats()
	out := Stats{
		Sessions: st.Sessions,
		Store: StoreStats{
			Backend:         st.Store.Backend,
			LiveSessions:    st.Store.LiveSessions,
			KnownSessions:   st.Store.KnownSessions,
			DirtySessions:   st.Store.DirtySessions,
			EvictionsToDisk: st.Store.EvictionsToDisk,
			HydrationHits:   st.Store.HydrationHits,
			HydrationMisses: st.Store.HydrationMisses,
			PersistErrors:   st.Store.PersistErrors,

			PersistRetries:      st.Store.PersistRetries,
			EvictionsRefused:    st.Store.EvictionsRefused,
			DegradedMode:        st.Store.DegradedMode,
			BreakerState:        st.Store.BreakerState,
			QuarantinedSessions: st.Store.QuarantinedSessions,
		},
		PCacheHitRate: st.PCache.HitRate,
	}
	if p := st.Store.Persist; p != nil {
		out.Store.Persist = &PersistStats{
			Snapshots:         p.Snapshots,
			WALAppends:        p.WALAppends,
			Replays:           p.Replays,
			RecoveredSessions: p.RecoveredSessions,
			Fsyncs:            p.Fsyncs,
			TornWALTails:      p.TornTails,
			Quarantines:       p.Quarantines,
		}
	}
	return out
}
