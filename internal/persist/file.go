package persist

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"crowdtopk/internal/par"
	"crowdtopk/internal/session"
)

// SyncPolicy selects how eagerly the file backend calls fsync on WAL
// appends. Snapshots are always synced and atomically renamed regardless of
// the policy: they are the recovery base.
type SyncPolicy string

const (
	// SyncAlways fsyncs the WAL after every appended answer batch: once Put
	// returns, the batch survives power loss, at the price of one fsync per
	// append. The serving layer acknowledges answers before its background
	// persister calls Put, so an acknowledged answer is durable only once
	// that write has landed.
	SyncAlways SyncPolicy = "always"
	// SyncNone leaves WAL durability to the OS page cache (plus Flush on
	// graceful shutdown): a hard crash may lose the most recent answers,
	// which the crowd platform would then be asked to re-deliver.
	SyncNone SyncPolicy = "none"
)

// ParseSyncPolicy maps the -fsync flag value to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch SyncPolicy(s) {
	case SyncAlways:
		return SyncAlways, nil
	case SyncNone:
		return SyncNone, nil
	}
	return "", fmt.Errorf("persist: unknown fsync policy %q (want %q or %q)", s, SyncAlways, SyncNone)
}

// DefaultSnapshotEvery is the compaction cadence: after this many answers
// accumulate in a session's WAL, Put folds them into a fresh snapshot and
// truncates the log.
const DefaultSnapshotEvery = 64

// FileOptions configures a file-backed store.
type FileOptions struct {
	// Dir is the data directory; sessions live under Dir/sessions/<id>/.
	Dir string
	// SnapshotEvery compacts a session's WAL into a fresh snapshot after
	// this many appended answers (0 = DefaultSnapshotEvery).
	SnapshotEvery int
	// Sync is the WAL fsync policy (empty = SyncAlways).
	Sync SyncPolicy
	// Pool optionally lends recoveries the process-wide worker budget for
	// their tree rebuilds.
	Pool *par.Budget
}

// File is the durable Store: one directory per session holding a full
// snapshot (the session checkpoint envelope, reused verbatim) plus an
// append-only CRC-framed WAL of the answers accepted since. See the package
// comment for the recovery semantics.
type File struct {
	dir           string // <Dir>/sessions
	snapshotEvery int
	sync          SyncPolicy
	pool          *par.Budget
	c             counters

	mu       sync.Mutex
	sessions map[string]*fileSession
	closed   bool
}

// fileSession is the in-memory bookkeeping for one session's directory. Its
// lock serializes that session's disk operations; distinct sessions do not
// contend.
type fileSession struct {
	mu         sync.Mutex
	wal        *os.File // append handle, opened lazily
	walCount   int      // records currently in the WAL
	walSize    int64    // bytes of intact records in the WAL file
	walDamaged bool     // a failed append may have left a partial frame past walSize
	persisted  int      // answers durably recorded (snapshot + WAL); -1 = unknown
	deleted    bool     // Delete won a race; late Puts must not resurrect the dir
}

// NewFile opens (creating if needed) a file-backed store rooted at
// opts.Dir.
func NewFile(opts FileOptions) (*File, error) {
	if opts.Dir == "" {
		return nil, errors.New("persist: file store needs a directory")
	}
	if opts.SnapshotEvery <= 0 {
		opts.SnapshotEvery = DefaultSnapshotEvery
	}
	if opts.Sync == "" {
		opts.Sync = SyncAlways
	}
	if _, err := ParseSyncPolicy(string(opts.Sync)); err != nil {
		return nil, err
	}
	root := filepath.Join(opts.Dir, "sessions")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("persist: creating %s: %w", root, err)
	}
	return &File{
		dir:           root,
		snapshotEvery: opts.SnapshotEvery,
		sync:          opts.Sync,
		pool:          opts.Pool,
		sessions:      make(map[string]*fileSession),
	}, nil
}

// Counters reports the store's activity counters.
func (f *File) Counters() CounterSnapshot { return f.c.snapshot() }

func (f *File) sessionDir(id string) string { return filepath.Join(f.dir, id) }
func (f *File) snapPath(id string) string   { return filepath.Join(f.dir, id, "snapshot.json") }
func (f *File) walPath(id string) string    { return filepath.Join(f.dir, id, "wal.log") }

// state returns (creating if needed) the session's bookkeeping entry.
func (f *File) state(id string) (*fileSession, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, ErrClosed
	}
	st, ok := f.sessions[id]
	if !ok {
		st = &fileSession{persisted: -1}
		f.sessions[id] = st
	}
	return st, nil
}

// Put appends the answers accepted since the previous Put to the session's
// WAL (fsyncing per policy) and compacts into a fresh snapshot when the WAL
// has grown past SnapshotEvery or the session reached a terminal state. The
// first Put for an id this store instance has no bookkeeping for writes a
// full snapshot.
func (f *File) Put(id string, sess *session.Session) error {
	if err := ValidateID(id); err != nil {
		return err
	}
	st, err := f.state(id)
	if err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.deleted {
		return ErrNotFound
	}
	delta, total := sess.AnswersSince(max(st.persisted, 0))
	if st.persisted < 0 || st.persisted > total {
		// Unknown on-disk state (fresh session, or a session this instance
		// never loaded) — or bookkeeping that cannot match this session
		// object. Re-base on a full snapshot.
		return f.writeSnapshot(id, st, sess)
	}
	if len(delta) > 0 {
		if err := f.openWALForAppend(id, st); err != nil {
			return err
		}
		buf, err := encodeWAL(uint64(st.persisted), delta)
		if err != nil {
			return fmt.Errorf("persist: appending wal for %s: %w", id, err)
		}
		start := time.Now()
		if _, err := st.wal.Write(buf); err != nil {
			// The kernel may have persisted a prefix of the buffer before
			// failing: everything past walSize is now suspect, and the next
			// append must truncate it first or recovery would mistake the
			// partial frame for a torn tail and drop the retried records.
			st.walDamaged = true
			return fmt.Errorf("persist: appending wal for %s: %w", id, err)
		}
		st.walSize += int64(len(buf))
		observeSince(walAppendSeconds, start)
		if f.sync == SyncAlways {
			start = time.Now()
			if err := st.wal.Sync(); err != nil {
				return fmt.Errorf("persist: syncing wal for %s: %w", id, err)
			}
			observeSince(walFsyncSeconds, start)
			f.c.fsyncs.Add(1)
		}
		f.c.walAppends.Add(uint64(len(delta)))
		st.walCount += len(delta)
		st.persisted = total
	}
	if st.walCount >= f.snapshotEvery || (st.walCount > 0 && sess.Status().State.Terminal()) {
		return f.writeSnapshot(id, st, sess)
	}
	return nil
}

// openWALForAppend lazily opens the session's WAL append handle and, when a
// previous failed append may have left a partial frame behind, truncates the
// file back to its last intact byte so retried records land clean. Called
// with st.mu held.
func (f *File) openWALForAppend(id string, st *fileSession) error {
	if st.wal == nil {
		w, err := os.OpenFile(f.walPath(id), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("persist: opening wal for %s: %w", id, err)
		}
		st.wal = w
	}
	if st.walDamaged {
		if err := st.wal.Truncate(st.walSize); err != nil {
			return fmt.Errorf("persist: truncating damaged wal tail for %s: %w", id, err)
		}
		st.walDamaged = false
	}
	return nil
}

// putTorn is the torn-write hook behind FaultStore: it performs Put's WAL
// append but deliberately cuts the last cut bytes off the encoded batch,
// leaving a partial frame on disk — what a crash or full disk mid-append
// produces — then reports failure without advancing any bookkeeping, exactly
// as a real short write would.
func (f *File) putTorn(id string, sess *session.Session, cut int) error {
	if err := ValidateID(id); err != nil {
		return err
	}
	st, err := f.state(id)
	if err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.deleted {
		return ErrNotFound
	}
	delta, total := sess.AnswersSince(max(st.persisted, 0))
	if st.persisted < 0 || st.persisted > total || len(delta) == 0 {
		// Snapshot-path Puts have no append to tear; fail them plainly.
		return fmt.Errorf("%w: torn put for %s (snapshot path)", ErrInjected, id)
	}
	if err := f.openWALForAppend(id, st); err != nil {
		return err
	}
	buf, err := encodeWAL(uint64(st.persisted), delta)
	if err != nil {
		return err
	}
	if cut < 1 {
		cut = 1
	}
	if cut >= len(buf) {
		cut = len(buf) - 1
	}
	if _, err := st.wal.Write(buf[:len(buf)-cut]); err != nil {
		st.walDamaged = true
		return fmt.Errorf("persist: appending wal for %s: %w", id, err)
	}
	st.walDamaged = true
	return fmt.Errorf("%w: torn wal append for %s (%d of %d bytes)", ErrInjected, id, len(buf)-cut, len(buf))
}

// writeSnapshot checkpoints the session, atomically replaces snapshot.json,
// and truncates the WAL. Called with st.mu held. The rename-then-truncate
// order is crash-safe: a crash between the two leaves low-seq WAL records
// that recovery skips by sequence number.
func (f *File) writeSnapshot(id string, st *fileSession, sess *session.Session) error {
	defer observeSince(snapshotSeconds, time.Now())
	var buf bytes.Buffer
	if err := sess.Checkpoint(&buf); err != nil {
		return fmt.Errorf("persist: checkpointing %s: %w", id, err)
	}
	info, err := session.PeekCheckpoint(buf.Bytes())
	if err != nil {
		return fmt.Errorf("persist: checkpointing %s: %w", id, err)
	}
	dir := f.sessionDir(id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("persist: creating %s: %w", dir, err)
	}
	tmp := f.snapPath(id) + ".tmp"
	w, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("persist: writing snapshot for %s: %w", id, err)
	}
	_, werr := w.Write(buf.Bytes())
	if werr == nil {
		// Snapshots sync regardless of policy: they are the recovery base,
		// and one fsync per compaction (not per answer) is cheap.
		werr = w.Sync()
		f.c.fsyncs.Add(1)
	}
	if cerr := w.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("persist: writing snapshot for %s: %w", id, werr)
	}
	if err := os.Rename(tmp, f.snapPath(id)); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("persist: replacing snapshot for %s: %w", id, err)
	}
	f.syncDir(dir)
	// The snapshot covers everything: drop the WAL.
	if st.wal != nil {
		_ = st.wal.Close()
		st.wal = nil
	}
	if err := os.Remove(f.walPath(id)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("persist: truncating wal for %s: %w", id, err)
	}
	st.walCount = 0
	st.walSize = 0
	st.walDamaged = false
	st.persisted = info.Asked
	f.c.snapshots.Add(1)
	return nil
}

// syncDir best-effort-fsyncs a directory so a rename survives power loss.
func (f *File) syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	if d.Sync() == nil {
		f.c.fsyncs.Add(1)
	}
	_ = d.Close()
}

// Get rebuilds the session: restore the snapshot, then replay the WAL tail
// through the session's own SubmitAnswer transition. Records the snapshot
// already covers are skipped by sequence number; a torn final record is
// dropped and the log truncated to its last intact byte; any other
// inconsistency is a *CorruptError.
func (f *File) Get(id string) (*session.Session, error) {
	if err := ValidateID(id); err != nil {
		return nil, err
	}
	st, err := f.state(id)
	if err != nil {
		return nil, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.deleted {
		return nil, ErrNotFound
	}
	defer observeSince(recoverSeconds, time.Now())
	snap, err := os.ReadFile(f.snapPath(id))
	if errors.Is(err, fs.ErrNotExist) {
		if _, derr := os.Stat(f.sessionDir(id)); derr == nil {
			// A session directory without its snapshot cannot be recovered:
			// the WAL is a delta over a base that is gone.
			return nil, &CorruptError{ID: id, Path: f.snapPath(id), Err: errors.New("session directory exists but snapshot is missing")}
		}
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, fmt.Errorf("persist: reading snapshot for %s: %w", id, err)
	}
	sess, err := session.Restore(bytes.NewReader(snap), f.pool)
	if err != nil {
		// Digest/schema/kind mismatches and undecodable envelopes all mean
		// the base cannot be trusted.
		return nil, &CorruptError{ID: id, Path: f.snapPath(id), Err: err}
	}
	base := sess.Status().Asked

	walData, err := os.ReadFile(f.walPath(id))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("persist: reading wal for %s: %w", id, err)
	}
	recs, validEnd, torn, rerr := readWAL(walData)
	if rerr != nil {
		return nil, &CorruptError{ID: id, Path: f.walPath(id), Err: rerr}
	}
	replayed := 0
	for _, rec := range recs {
		if rec.Seq < uint64(base) {
			continue // covered by the snapshot (compaction crash window)
		}
		if rec.Seq != uint64(base+replayed) {
			return nil, &CorruptError{ID: id, Path: f.walPath(id),
				Err: fmt.Errorf("wal gap: record seq %d where %d was expected", rec.Seq, base+replayed)}
		}
		if err := sess.SubmitAnswer(rec.Answer); err != nil {
			return nil, &CorruptError{ID: id, Path: f.walPath(id),
				Err: fmt.Errorf("replaying record seq %d: %w", rec.Seq, err)}
		}
		replayed++
	}
	if torn {
		f.c.tornTails.Add(1)
		if err := os.Truncate(f.walPath(id), validEnd); err != nil {
			return nil, fmt.Errorf("persist: truncating torn wal for %s: %w", id, err)
		}
	}
	if st.wal != nil {
		_ = st.wal.Close()
		st.wal = nil
	}
	st.walCount = len(recs)
	st.walSize = validEnd
	st.walDamaged = false
	st.persisted = base + replayed
	f.c.replays.Add(uint64(replayed))
	f.c.recovered.Add(1)
	return sess, nil
}

// Delete removes the session's directory and bookkeeping.
func (f *File) Delete(id string) error {
	if err := ValidateID(id); err != nil {
		return err
	}
	st, err := f.state(id)
	if err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.deleted {
		return ErrNotFound
	}
	if st.wal != nil {
		_ = st.wal.Close()
		st.wal = nil
	}
	if _, serr := os.Stat(f.sessionDir(id)); errors.Is(serr, fs.ErrNotExist) {
		return ErrNotFound
	}
	if err := os.RemoveAll(f.sessionDir(id)); err != nil {
		return fmt.Errorf("persist: deleting %s: %w", id, err)
	}
	// Tombstone rather than forget: a Put queued behind this Delete (the
	// async persister racing a DELETE request) must not resurrect the
	// directory. Ids are random and never reused, so tombstones are tiny.
	st.deleted = true
	return nil
}

// Flush fsyncs every open WAL, making all accepted Puts durable under any
// sync policy (the graceful-shutdown path relies on this with SyncNone).
func (f *File) Flush() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return ErrClosed
	}
	states := make([]*fileSession, 0, len(f.sessions))
	for _, st := range f.sessions {
		states = append(states, st)
	}
	f.mu.Unlock()
	var first error
	for _, st := range states {
		st.mu.Lock()
		if st.wal != nil {
			start := time.Now()
			if err := st.wal.Sync(); err != nil && first == nil {
				first = fmt.Errorf("persist: flush: %w", err)
			} else if err == nil {
				observeSince(walFsyncSeconds, start)
				f.c.fsyncs.Add(1)
			}
		}
		st.mu.Unlock()
	}
	return first
}

// Close flushes and releases every open file. The store is unusable after;
// Close is idempotent.
func (f *File) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	states := make([]*fileSession, 0, len(f.sessions))
	for _, st := range f.sessions {
		states = append(states, st)
	}
	f.closed = true
	f.mu.Unlock()
	var first error
	for _, st := range states {
		st.mu.Lock()
		if st.wal != nil {
			if err := st.wal.Sync(); err == nil {
				f.c.fsyncs.Add(1)
			} else if first == nil {
				first = fmt.Errorf("persist: close: %w", err)
			}
			if err := st.wal.Close(); err != nil && first == nil {
				first = fmt.Errorf("persist: close: %w", err)
			}
			st.wal = nil
		}
		st.mu.Unlock()
	}
	return first
}
