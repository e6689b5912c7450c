package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"crowdtopk/internal/obs"
	"crowdtopk/internal/persist"
	"crowdtopk/internal/session"
)

// ErrNotFound reports a session id the store does not hold (never created,
// deleted, or — in memory-only mode — evicted after its TTL).
var ErrNotFound = errors.New("service: no such session")

// ErrFull reports that the store is at its session capacity.
var ErrFull = errors.New("service: session limit reached")

// meta is the store's entry for one known session — live or resident only
// in the durable backend. All fields are guarded by store.mu; the session
// serializes its own transitions.
type meta struct {
	lastUsed time.Time
	// sess is the resident session object, nil while the session lives only
	// in the durable backend.
	sess *session.Session
	// persisted: a durable copy exists (possibly stale while dirty).
	persisted bool
	// dirtyGen counts accepted answers (and other persist-worthy events);
	// persistedGen is the dirtyGen value the last successful persist
	// covered. dirtyGen > persistedGen means durable work is pending.
	dirtyGen, persistedGen uint64
	// lastErr is the most recent durable-write failure for this session
	// (empty after a successful persist). Surfaced in the session listing so
	// operators can find stuck-dirty sessions without grepping logs.
	lastErr string
	// quarantined: the durable copy was corrupt and has been moved to the
	// quarantine area; the id is listed (state=quarantined) but not
	// servable. quarantineReason is one of the persist.Reason* constants.
	quarantined      bool
	quarantineReason string
}

// store is the server's session registry: one table of known sessions, each
// entry holding its resident session object. When a durable backend is
// configured every accepted answer is asynchronously appended to it, idle
// sessions are evicted to it instead of dropped, and entries without a
// resident session hydrate from it lazily. Without a durable backend TTL
// eviction drops sessions for good.
type store struct {
	ttl          time.Duration
	max          int
	log          *slog.Logger
	closeTimeout time.Duration // bound on the shutdown drain

	disk persist.Store // nil in memory-only mode
	bg   *persister    // nil in memory-only mode
	brk  *breaker      // nil in memory-only mode

	// bootScanned flips once the durable backend's id scan completed (true
	// from construction in memory-only mode); persistFailing tracks whether
	// the most recent durable write failed. Both feed readiness.
	bootScanned    atomic.Bool
	persistFailing atomic.Bool

	mu        sync.Mutex
	meta      map[string]*meta         // nil once closed
	hydrating map[string]chan struct{} // singleflight per hydrating id
	reserved  int                      // capacity claimed by creates still building
	resident  int                      // count of meta entries holding a session

	evictions        atomic.Uint64 // sessions moved memory → disk by the janitor
	evictionsRefused atomic.Uint64 // evictions refused to protect unpersisted answers
	hydraHits        atomic.Uint64 // lazy loads that found the session on disk
	hydraMisses      atomic.Uint64 // misses that found nothing anywhere
	persistErrors    atomic.Uint64 // failed durable writes (answers stay live)
	quarantines      atomic.Uint64 // corrupt sessions moved aside by this process

	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
}

// newStore builds the registry. With a durable backend it scans the backend
// once so every persisted session is addressable immediately after a
// restart (the scan reads ids only; sessions hydrate lazily on first
// access). Individual unreadable session directories are skipped or
// quarantined with a warning — startup fails only when the data dir itself
// is unusable. onBreaker, if non-nil, observes durable-tier circuit breaker
// transitions (for audit/metrics).
func newStore(ttl time.Duration, max int, disk persist.Store, log *slog.Logger,
	closeTimeout time.Duration, onBreaker func(from, to string)) (*store, error) {
	if closeTimeout <= 0 {
		closeTimeout = DefaultShutdownTimeout
	}
	s := &store{
		ttl:          ttl,
		max:          max,
		log:          log,
		closeTimeout: closeTimeout,
		disk:         disk,
		meta:         make(map[string]*meta),
		hydrating:    make(map[string]chan struct{}),
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
	}
	if disk != nil {
		start := time.Now()
		res, err := disk.Scan()
		if err != nil {
			return nil, fmt.Errorf("service: scanning persisted sessions: %w", err)
		}
		for _, name := range res.Skipped {
			s.log.Warn("store: boot scan skipped unusable entry", "entry", name)
		}
		now := time.Now()
		for _, id := range res.IDs {
			s.meta[id] = &meta{lastUsed: now, persisted: true}
		}
		for _, q := range res.Quarantined {
			s.meta[q.ID] = &meta{lastUsed: now, quarantined: true, quarantineReason: q.Reason}
		}
		s.brk = newBreaker(func(from, to breakerState) {
			s.log.Warn("store: durable-tier breaker transition", "from", string(from), "to", string(to))
			if onBreaker != nil {
				onBreaker(string(from), string(to))
			}
		})
		s.bg = newPersister(s.persistOne, s.brk, log)
		s.log.Info("store: boot scan complete", "persisted_sessions", len(res.IDs),
			"quarantined_sessions", len(res.Quarantined), "duration", time.Since(start))
	}
	s.bootScanned.Store(true)
	go s.janitor()
	return s, nil
}

// newID returns a fresh 128-bit random session id.
func newID() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	return "s_" + hex.EncodeToString(b[:]), nil
}

// reserve claims capacity for a session about to be built, so load shedding
// happens before the expensive tree construction rather than after it. The
// reservation is consumed by add or returned with unreserve. Capacity
// bounds resident (in-memory) sessions: disk residency is not load.
func (s *store) reserve() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.max > 0 && s.resident+s.reserved >= s.max {
		return ErrFull
	}
	s.reserved++
	return nil
}

// unreserve returns a reservation whose build failed.
func (s *store) unreserve() {
	s.mu.Lock()
	s.reserved--
	s.mu.Unlock()
}

// add registers a session under a fresh id, consuming one reservation made
// with reserve (which guarantees room). With a durable backend the new
// session is queued for its initial snapshot right away. A closed store
// refuses with persist.ErrClosed.
func (s *store) add(sess *session.Session) (string, error) {
	id, err := newID()
	if err != nil {
		s.unreserve()
		return "", err
	}
	s.watch(id, sess) // before the id is reachable, so no answer misses the hook
	s.mu.Lock()
	s.reserved--
	if s.meta == nil {
		s.mu.Unlock()
		return "", persist.ErrClosed
	}
	s.meta[id] = &meta{lastUsed: time.Now(), sess: sess, dirtyGen: 1}
	s.resident++
	s.mu.Unlock()
	if s.bg != nil {
		// Queue the initial snapshot. This only enqueues it: the create is
		// acknowledged before the write, and answers accepted before the
		// persister runs land in that first snapshot instead of the WAL.
		s.bg.enqueue(id)
	}
	return id, nil
}

// watch wires the session's dirty-answer hook to the async persister: every
// accepted answer bumps the dirty generation and queues a durable write.
func (s *store) watch(id string, sess *session.Session) {
	if s.bg == nil {
		return
	}
	sess.SetDirtyHook(func() { s.markDirty(id, sess) })
}

// markDirty records an accepted answer on sess. The session reference
// matters: a request handler can hold a session across a TTL eviction and
// still accept an answer on it — the answer was acked, so the store
// re-attaches the very object that accepted it rather than letting the
// write vanish with an unreachable pointer. A deleted session (meta gone)
// stays deleted.
func (s *store) markDirty(id string, sess *session.Session) {
	s.mu.Lock()
	m := s.meta[id]
	if m == nil {
		s.mu.Unlock()
		return
	}
	m.dirtyGen++
	if cur := m.sess; cur != sess {
		// The handler outlived sess's residency: a TTL eviction released it
		// (cur == nil), or a lazy hydration raced this answer and re-loaded
		// the older disk copy under the same id — a fork. Either way the
		// resident object is missing the answer that was just acked on sess,
		// and the durable write this call queues would persist a copy
		// without it. Re-attach sess — unless the resident fork has itself
		// accepted strictly more answers, in which case the lines cannot be
		// merged and we keep the one holding more acked progress (ties favor
		// sess: in the eviction→hydration race the disk copy cur was loaded
		// from is a prefix of sess's history).
		if cur == nil || sess.Status().Asked >= cur.Status().Asked {
			if cur == nil {
				s.resident++
			}
			m.sess = sess
			m.lastUsed = time.Now()
		}
	}
	s.mu.Unlock()
	s.bg.enqueue(id)
}

// persistOne writes one session's pending state to the durable backend. It
// runs on the persister goroutine, the janitor's eviction path, and Flush —
// never under s.mu, because a file-backend Put fsyncs. The error return
// feeds the persister's retry/backoff loop and the circuit breaker; a nil
// return also covers "nothing to do".
func (s *store) persistOne(id string) error {
	s.mu.Lock()
	m := s.meta[id]
	if m == nil || m.sess == nil || m.quarantined {
		s.mu.Unlock()
		return nil
	}
	gen, sess := m.dirtyGen, m.sess
	if m.persisted && gen == m.persistedGen {
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()
	if err := s.disk.Put(id, sess); err != nil {
		// The answers are still live in memory; the persister retries with
		// backoff until the write lands, so a transient disk error heals
		// itself without waiting for the next accepted answer.
		s.persistErrors.Add(1)
		s.persistFailing.Store(true)
		s.log.Warn("store: durable write failed", "session", id, "error", err)
		s.mu.Lock()
		if m2 := s.meta[id]; m2 != nil {
			m2.lastErr = err.Error()
		}
		s.mu.Unlock()
		return err
	}
	s.persistFailing.Store(false)
	s.mu.Lock()
	if m2 := s.meta[id]; m2 != nil {
		m2.persisted = true
		m2.lastErr = ""
		if m2.persistedGen < gen {
			m2.persistedGen = gen
		}
	}
	s.mu.Unlock()
	return nil
}

// get returns the session and refreshes its TTL, lazily hydrating from the
// durable backend when the session is not in memory (evicted, or created by
// a previous process).
func (s *store) get(ctx context.Context, id string) (*session.Session, error) {
	for {
		s.mu.Lock()
		m := s.meta[id]
		if m != nil && m.quarantined {
			reason := m.quarantineReason
			s.mu.Unlock()
			return nil, &QuarantinedError{ID: id, Reason: reason}
		}
		if m != nil && m.sess != nil {
			m.lastUsed = time.Now()
			sess := m.sess
			s.mu.Unlock()
			return sess, nil
		}
		// Unknown ids are misses even with a durable backend: the boot scan
		// registered every persisted session, so there is nothing to probe
		// the disk for (and probing on arbitrary ids would let clients turn
		// 404s into disk reads).
		if m == nil || s.disk == nil {
			s.mu.Unlock()
			return nil, ErrNotFound
		}
		// Hydration singleflight: wait for an in-flight load of the same id
		// rather than rebuilding the tree twice.
		if ch, ok := s.hydrating[id]; ok {
			s.mu.Unlock()
			<-ch
			continue
		}
		ch := make(chan struct{})
		s.hydrating[id] = ch
		s.mu.Unlock()

		// The hydration span covers the durable read, WAL replay and tree
		// rebuild — the cold-start cost a request pays when it lands on a
		// disk-resident session.
		_, hsp := obs.StartSpan(ctx, "persist.hydrate")
		hsp.SetAttr("session", id)
		sess, err := s.hydrate(id)
		hsp.End()

		s.mu.Lock()
		delete(s.hydrating, id)
		s.mu.Unlock()
		close(ch)
		return sess, err
	}
}

// hydrate loads one session from the durable backend into its table entry.
// Runs outside s.mu (recovery rebuilds the tree); the caller holds the
// singleflight slot for id.
func (s *store) hydrate(id string) (*session.Session, error) {
	sess, err := s.disk.Get(id)
	if errors.Is(err, persist.ErrNotFound) {
		s.hydraMisses.Add(1)
		s.mu.Lock()
		if m := s.meta[id]; m != nil && m.sess == nil {
			delete(s.meta, id) // the backend lost it out from under us
		}
		s.mu.Unlock()
		return nil, ErrNotFound
	}
	if err != nil {
		if errors.Is(err, persist.ErrCorrupt) {
			if q := s.quarantine(id, err); q != nil {
				return nil, q
			}
		}
		// A durable-tier failure, not a client mistake: wrap it so transports
		// report a server-side error even when the underlying cause (say, a
		// digest mismatch from a corrupted snapshot) would otherwise read as
		// invalid client input.
		return nil, &StorageError{Op: "hydrating session " + id, Err: err}
	}
	s.watch(id, sess) // before the object is reachable, so no answer misses the hook
	s.mu.Lock()
	m := s.meta[id]
	if m == nil {
		// Deleted while we were loading: the DELETE was acknowledged, so
		// the disk copy we just read must not come back to life.
		s.mu.Unlock()
		return nil, ErrNotFound
	}
	if live := m.sess; live != nil {
		// Re-attached while we were loading (markDirty on an in-flight
		// answer): the live object is strictly newer than the disk copy we
		// read — keep it.
		s.mu.Unlock()
		return live, nil
	}
	m.sess = sess
	s.resident++
	m.persisted = true
	m.persistedGen = m.dirtyGen // the restored state is durable by definition
	m.lastUsed = time.Now()
	s.mu.Unlock()
	s.hydraHits.Add(1)
	s.log.Info("store: session hydrated from durable backend", "session", id)
	return sess, nil
}

// quarantine moves a corrupt session's durable data out of the serving path
// and marks its meta entry quarantined, so the id stops 500ing on every
// hydration and is listed with a typed reason instead. Returns the error to
// serve, or nil when the move failed (the caller falls back to a plain
// storage error).
func (s *store) quarantine(id string, cause error) error {
	reason, detail := persist.QuarantineReasonFor(cause)
	if err := s.disk.Quarantine(id, reason, detail); err != nil {
		s.log.Warn("store: quarantining corrupt session failed", "session", id, "error", err)
		return nil
	}
	s.mu.Lock()
	if m := s.meta[id]; m != nil && m.sess == nil {
		m.quarantined = true
		m.quarantineReason = reason
		m.persisted = false
		m.lastErr = ""
	}
	s.mu.Unlock()
	s.quarantines.Add(1)
	s.log.Warn("store: corrupt session quarantined",
		"session", id, "reason", reason, "detail", detail)
	return &QuarantinedError{ID: id, Reason: reason}
}

// remove deletes a session from every tier; it reports whether the id
// existed.
func (s *store) remove(id string) bool {
	s.mu.Lock()
	m := s.meta[id]
	if m == nil {
		s.mu.Unlock()
		return false
	}
	if m.sess != nil {
		s.resident--
	}
	delete(s.meta, id)
	s.mu.Unlock()
	if s.disk != nil {
		_ = s.disk.Delete(id) // ErrNotFound fine: never persisted yet
	}
	return true
}

// len returns the number of live (in-memory) sessions.
func (s *store) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resident
}

// known returns the number of sessions the store can serve, including those
// resident only in the durable backend.
func (s *store) known() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.meta)
}

// saturated reports whether the store is at its live-session capacity —
// every further create would shed with ErrFull.
func (s *store) saturated() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.max > 0 && s.resident+s.reserved >= s.max
}

// stateCounts tallies live sessions by lifecycle state (plus "disk" for
// sessions resident only in the durable backend) for the session-state
// gauges. It snapshots the live set under s.mu, then reads each session's
// state outside it: Status takes the session's own lock, and a session
// mid-answer would otherwise stall every scrape.
func (s *store) stateCounts() map[string]int {
	s.mu.Lock()
	sessions := make([]*session.Session, 0, s.resident)
	disk, quarantined := 0, 0
	for _, m := range s.meta {
		switch {
		case m.quarantined:
			quarantined++
		case m.sess == nil:
			disk++
		default:
			sessions = append(sessions, m.sess)
		}
	}
	s.mu.Unlock()
	counts := make(map[string]int)
	if disk > 0 {
		counts["disk"] = disk
	}
	if quarantined > 0 {
		counts["quarantined"] = quarantined
	}
	for _, sess := range sessions {
		counts[string(sess.State())]++
	}
	return counts
}

// listItem is one row of the store's session listing.
type listItem struct {
	id          string
	idle        time.Duration
	hydrated    bool
	persisted   bool
	persistErr  string
	quarantined bool
	quarReason  string
	// sess is the resident session object, captured under the same lock
	// hold that read the entry. Re-resolving the id after list returns would
	// race deletes and evictions, producing rows that claim a live session
	// but carry none of its state; nil here means the row is disk-only.
	sess *session.Session
}

// list snapshots up to limit known sessions, sorted by id for a stable
// pagination order. Each row is internally consistent: hydrated is true iff
// sess is the object that was resident at snapshot time (listing must not
// refresh TTLs, so the capture bypasses get).
func (s *store) list(limit int) (items []listItem, total int) {
	now := time.Now()
	s.mu.Lock()
	ids := make([]string, 0, len(s.meta))
	for id := range s.meta {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	total = len(ids)
	if limit > 0 && limit < len(ids) {
		ids = ids[:limit]
	}
	items = make([]listItem, 0, len(ids))
	for _, id := range ids {
		m := s.meta[id]
		items = append(items, listItem{
			id:          id,
			idle:        now.Sub(m.lastUsed),
			hydrated:    m.sess != nil,
			persisted:   m.persisted,
			persistErr:  m.lastErr,
			quarantined: m.quarantined,
			quarReason:  m.quarantineReason,
			sess:        m.sess,
		})
	}
	s.mu.Unlock()
	return items, total
}

// flush pushes every pending durable write to the backend and syncs it —
// the graceful-shutdown barrier.
func (s *store) flush() {
	if s.bg == nil {
		return
	}
	s.bg.flush()
	s.persistStragglers()
	_ = s.disk.Flush()
}

// persistStragglers synchronously persists every resident session still
// marked dirty after the persister's drain — a markDirty racing the drain
// can leave work the queue never saw.
func (s *store) persistStragglers() {
	s.mu.Lock()
	var pending []string
	for id, m := range s.meta {
		if m.sess != nil && (!m.persisted || m.dirtyGen > m.persistedGen) {
			pending = append(pending, id)
		}
	}
	s.mu.Unlock()
	for _, id := range pending {
		_ = s.persistOne(id)
	}
}

// degraded reports whether the durable tier's circuit breaker is non-closed:
// writes are being withheld and the service is serving from the live tier
// only. Always false in memory-only mode.
func (s *store) degraded() bool { return s.brk != nil && s.brk.degraded() }

// breakerState returns the durable-tier breaker state ("" in memory-only
// mode) for stats.
func (s *store) breakerState() string {
	if s.brk == nil {
		return ""
	}
	return string(s.brk.currentState())
}

// quarantinedCount counts known sessions currently marked quarantined.
func (s *store) quarantinedCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, m := range s.meta {
		if m.quarantined {
			n++
		}
	}
	return n
}

// close stops the janitor and the persister (pushing pending writes under
// the shutdown deadline — a wedged backend must not hang SIGTERM forever),
// then drops the session table; later adds fail with persist.ErrClosed. It
// is idempotent, so embedders that both defer Close and call it on a
// shutdown-signal path do not panic on the second call.
func (s *store) close() {
	s.closeOnce.Do(func() {
		close(s.stop)
		<-s.done
		if s.bg != nil {
			deadline := time.Now().Add(s.closeTimeout)
			left := s.bg.stopAndDrain(deadline)
			if len(left) > 0 {
				s.log.Warn("store: shutdown drain abandoned dirty sessions",
					"count", len(left), "sessions", left,
					"timeout", s.closeTimeout.String())
			} else {
				s.persistStragglers()
			}
			// Flush and close under what remains of the deadline: both can
			// block indefinitely on a wedged backend.
			done := make(chan struct{})
			go func() {
				defer close(done)
				_ = s.disk.Flush()
				_ = s.disk.Close()
			}()
			remain := time.Until(deadline)
			if remain < 100*time.Millisecond {
				remain = 100 * time.Millisecond
			}
			select {
			case <-done:
				s.log.Info("store: drained and closed durable backend")
			case <-time.After(remain):
				s.log.Warn("store: durable backend close timed out", "timeout", s.closeTimeout.String())
			}
		}
		s.mu.Lock()
		s.meta = nil
		s.resident = 0
		s.mu.Unlock()
	})
}

// janitor evicts idle sessions every ttl/4 (bounded to [1s, 1m] so tiny
// test TTLs still evict promptly and huge TTLs don't scan needlessly).
func (s *store) janitor() {
	defer close(s.done)
	if s.ttl <= 0 {
		<-s.stop // eviction disabled; just wait for close
		return
	}
	interval := s.ttl / 4
	if interval < time.Second {
		interval = s.ttl // sub-second TTLs (tests) sweep at TTL cadence
	}
	if interval > time.Minute {
		interval = time.Minute
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case now := <-tick.C:
			s.evictIdle(now)
		}
	}
}

// evictIdle moves idle live sessions out of memory: dropped for good in
// memory-only mode (the original TTL semantics), persisted to the durable
// backend and released otherwise — memory is then just a cache.
func (s *store) evictIdle(now time.Time) {
	s.mu.Lock()
	var idle []string
	for id, m := range s.meta {
		if m.sess == nil || now.Sub(m.lastUsed) <= s.ttl {
			continue
		}
		if s.disk == nil {
			delete(s.meta, id)
			s.resident--
			continue
		}
		idle = append(idle, id)
	}
	s.mu.Unlock()
	for _, id := range idle {
		s.evictToDisk(id, now)
	}
}

// evictToDisk persists one idle session and releases its memory, unless it
// became active (or accepted answers) while we were writing — then it stays
// live and the next sweep retries. While the durable tier is degraded the
// janitor does not touch the backend at all: eviction switches to
// refuse-instead-of-drop, so acked answers are never lost to a broken disk,
// and the retry loop (not the janitor) owns getting them durable.
func (s *store) evictToDisk(id string, now time.Time) {
	if s.degraded() {
		s.evictionsRefused.Add(1)
		s.bg.enqueue(id)
		return
	}
	_ = s.persistOne(id)
	s.mu.Lock()
	m := s.meta[id]
	if m == nil || m.sess == nil {
		s.mu.Unlock()
		return
	}
	if now.Sub(m.lastUsed) <= s.ttl {
		s.mu.Unlock()
		return // touched while persisting
	}
	if !m.persisted || m.dirtyGen > m.persistedGen {
		// Persist failed or raced an answer: the session must stay live, and
		// the retry loop must own it — without the re-enqueue nothing would
		// try again until the next accepted answer.
		s.mu.Unlock()
		s.evictionsRefused.Add(1)
		s.bg.enqueue(id)
		return
	}
	m.sess = nil
	s.resident--
	s.mu.Unlock()
	s.evictions.Add(1)
	s.log.Debug("store: idle session evicted to disk", "session", id)
}
