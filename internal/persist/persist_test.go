package persist

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"crowdtopk/internal/crowd"
	"crowdtopk/internal/dataset"
	"crowdtopk/internal/dist"
	"crowdtopk/internal/session"
)

func testDists(t testing.TB, n int, seed int64) []dist.Distribution {
	t.Helper()
	ds, err := dataset.Generate(dataset.Spec{N: n, Width: 2.2, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// newTestSession builds a deterministic session plus the oracle that answers
// its questions truthfully.
func newTestSession(t testing.TB, n, k, budget int) (*session.Session, crowd.Crowd) {
	t.Helper()
	ds := testDists(t, n, 5)
	truth := crowd.SampleTruth(ds, rand.New(rand.NewSource(99)))
	s, err := session.New(session.Config{Dists: ds, K: k, Budget: budget, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	return s, &crowd.PerfectOracle{Truth: truth}
}

// answerN submits up to n answers (all pending when n < 1), returning how
// many were accepted. after runs after every accepted answer — the tests'
// stand-in for the server's dirty hook.
func answerN(t testing.TB, s *session.Session, cr crowd.Crowd, n int, after func()) int {
	t.Helper()
	accepted := 0
	for n < 1 || accepted < n {
		qs, _, err := s.NextQuestions(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(qs) == 0 {
			return accepted
		}
		for _, q := range qs {
			if err := s.SubmitAnswer(cr.Ask(q)); err != nil {
				t.Fatal(err)
			}
			accepted++
			if after != nil {
				after()
			}
			if n >= 1 && accepted >= n {
				return accepted
			}
		}
	}
	return accepted
}

// sameResult fails the test unless the two sessions report identical top-K
// beliefs.
func sameResult(t *testing.T, got, want *session.Session) {
	t.Helper()
	g, w := got.Result(), want.Result()
	if g.State != w.State || g.Asked != w.Asked || g.Orderings != w.Orderings || g.Resolved != w.Resolved {
		t.Fatalf("state/asked/orderings/resolved = %s/%d/%d/%v, want %s/%d/%d/%v",
			g.State, g.Asked, g.Orderings, g.Resolved, w.State, w.Asked, w.Orderings, w.Resolved)
	}
	if !reflect.DeepEqual(g.Ranking, w.Ranking) {
		t.Fatalf("ranking %v, want %v", g.Ranking, w.Ranking)
	}
	if math.Abs(g.Uncertainty-w.Uncertainty) > 1e-9 {
		t.Fatalf("uncertainty %v, want %v", g.Uncertainty, w.Uncertainty)
	}
}

func TestValidateID(t *testing.T) {
	for _, id := range []string{"s_abc123", "a", "A-b_c.9"} {
		if err := ValidateID(id); err != nil {
			t.Errorf("ValidateID(%q) = %v, want nil", id, err)
		}
	}
	long := make([]byte, maxIDLen+1)
	for i := range long {
		long[i] = 'a'
	}
	for _, id := range []string{"", ".", "..", ".hidden", "a/b", "a\\b", "a b", "ü", string(long)} {
		if err := ValidateID(id); !errors.Is(err, ErrInvalidID) {
			t.Errorf("ValidateID(%q) = %v, want ErrInvalidID", id, err)
		}
	}
}

// TestFileRoundTrip: a session persisted answer by answer (as the server's
// dirty hook does) recovers from a fresh store instance with an identical
// belief, and both copies driven to completion stay identical.
func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := NewFile(FileOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s, cr := newTestSession(t, 7, 3, 12)
	if err := st.Put("s_x", s); err != nil { // initial snapshot, zero answers
		t.Fatal(err)
	}
	answerN(t, s, cr, 5, func() {
		if err := st.Put("s_x", s); err != nil {
			t.Fatal(err)
		}
	})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := NewFile(FileOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	got, err := st2.Get("s_x")
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, got, s)
	c := st2.Counters()
	if c.RecoveredSessions != 1 || c.Replays != 5 {
		t.Fatalf("counters = %+v, want 1 recovery with 5 replays", c)
	}

	// Driving both to completion keeps them identical: recovery reproduced
	// the full state machine, not just the belief.
	answerN(t, s, cr, 0, nil)
	answerN(t, got, cr, 0, nil)
	sameResult(t, got, s)
	if !got.State().Terminal() {
		t.Fatalf("state %s not terminal", got.State())
	}
}

// TestFileCompaction: the WAL folds into a fresh snapshot every
// SnapshotEvery answers, and a terminal session compacts immediately.
func TestFileCompaction(t *testing.T) {
	dir := t.TempDir()
	st, err := NewFile(FileOptions{Dir: dir, SnapshotEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s, cr := newTestSession(t, 7, 3, 12)
	if err := st.Put("s_x", s); err != nil {
		t.Fatal(err)
	}
	answerN(t, s, cr, 0, func() {
		if err := st.Put("s_x", s); err != nil {
			t.Fatal(err)
		}
	})
	if !s.State().Terminal() {
		t.Fatalf("session not terminal after exhausting the budget")
	}
	c := st.Counters()
	if c.Snapshots < 2 {
		t.Fatalf("snapshots = %d, want ≥ 2 (initial + compactions)", c.Snapshots)
	}
	// Terminal Put compacts, so no WAL remains.
	if _, err := os.Stat(filepath.Join(dir, "sessions", "s_x", "wal.log")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("wal still present after terminal compaction: %v", err)
	}

	st2, err := NewFile(FileOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	got, err := st2.Get("s_x")
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, got, s)
}

// TestCompactionCrashWindow: a crash after the snapshot rename but before
// the WAL truncation leaves low-seq records behind; recovery must skip them
// by sequence number instead of double-applying.
func TestCompactionCrashWindow(t *testing.T) {
	dir := t.TempDir()
	st, err := NewFile(FileOptions{Dir: dir, SnapshotEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	s, cr := newTestSession(t, 7, 3, 12)
	if err := st.Put("s_x", s); err != nil {
		t.Fatal(err)
	}
	answerN(t, s, cr, 4, func() {
		if err := st.Put("s_x", s); err != nil {
			t.Fatal(err)
		}
	})
	walPath := filepath.Join(dir, "sessions", "s_x", "wal.log")
	stale, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Force a compaction (covers the 4 answers), then put the stale WAL
	// back, as if the crash hit between rename and truncate.
	fs, err := st.state("s_x")
	if err != nil {
		t.Fatal(err)
	}
	fs.mu.Lock()
	err = st.writeSnapshot("s_x", fs, s)
	fs.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, stale, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := NewFile(FileOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	got, err := st2.Get("s_x")
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, got, s)
	if c := st2.Counters(); c.Replays != 0 {
		t.Fatalf("replays = %d, want 0 (all records below the snapshot)", c.Replays)
	}
}

// TestWALRecoveryTails pins the recovery semantics of damaged WALs: a torn
// tail is tolerated (the crash landed mid-append), everything else is a
// typed corruption error.
func TestWALRecoveryTails(t *testing.T) {
	// prep writes a session dir with 4 WAL records and returns its path
	// plus the session that produced it (for expectations).
	prep := func(t *testing.T) (dir string, s *session.Session) {
		dir = t.TempDir()
		st, err := NewFile(FileOptions{Dir: dir, SnapshotEvery: 100})
		if err != nil {
			t.Fatal(err)
		}
		s, cr := newTestSession(t, 7, 3, 12)
		if err := st.Put("s_x", s); err != nil {
			t.Fatal(err)
		}
		answerN(t, s, cr, 4, func() {
			if err := st.Put("s_x", s); err != nil {
				t.Fatal(err)
			}
		})
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		return dir, s
	}

	t.Run("truncated tail tolerated", func(t *testing.T) {
		dir, s := prep(t)
		walPath := filepath.Join(dir, "sessions", "s_x", "wal.log")
		data, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		// Chop into the last record: recovery keeps the intact prefix.
		if err := os.WriteFile(walPath, data[:len(data)-5], 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := NewFile(FileOptions{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		got, err := st.Get("s_x")
		if err != nil {
			t.Fatal(err)
		}
		if asked := got.Status().Asked; asked != 3 {
			t.Fatalf("asked = %d, want 3 (torn 4th record dropped)", asked)
		}
		c := st.Counters()
		if c.TornTails != 1 || c.Replays != 3 {
			t.Fatalf("counters = %+v, want 1 torn tail and 3 replays", c)
		}
		// The log was truncated to its intact prefix, so re-persisting the
		// re-delivered answer and recovering again is clean.
		recovered, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		if len(recovered) >= len(data)-5 {
			t.Fatalf("wal not truncated: %d bytes, had %d", len(recovered), len(data)-5)
		}
		_ = s
	})

	t.Run("inflated length field is corruption, not a torn tail", func(t *testing.T) {
		dir, _ := prep(t)
		walPath := filepath.Join(dir, "sessions", "s_x", "wal.log")
		data, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		// Blow up the first record's length field: the declared extent now
		// overshoots the file, which must read as corruption (an intact
		// header always carries the true length) — treating it as a torn
		// tail would silently discard every durable record after it.
		data[8+3] = 0x40 // length little-endian → ~2^30
		if err := os.WriteFile(walPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := NewFile(FileOptions{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if _, err := st.Get("s_x"); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("get = %v, want ErrCorrupt", err)
		}
		if c := st.Counters(); c.TornTails != 0 {
			t.Fatalf("torn_wal_tails = %d, want 0", c.TornTails)
		}
	})

	t.Run("mid-log corruption is typed", func(t *testing.T) {
		dir, _ := prep(t)
		walPath := filepath.Join(dir, "sessions", "s_x", "wal.log")
		data, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		// Flip a payload byte in the first record: its extent is intact, so
		// this is bit rot, not a torn append.
		data[walHeaderLen+2] ^= 0xff
		if err := os.WriteFile(walPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := NewFile(FileOptions{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		_, err = st.Get("s_x")
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("get = %v, want ErrCorrupt", err)
		}
		var ce *CorruptError
		if !errors.As(err, &ce) || ce.ID != "s_x" {
			t.Fatalf("corrupt error detail: %v", err)
		}
	})

	t.Run("snapshot digest mismatch is typed", func(t *testing.T) {
		dir, _ := prep(t)
		snapPath := filepath.Join(dir, "sessions", "s_x", "snapshot.json")
		data, err := os.ReadFile(snapPath)
		if err != nil {
			t.Fatal(err)
		}
		mangled := bytes.Replace(data, []byte(`"digest":"sha256:`), []byte(`"digest":"sha256:00`), 1)
		if bytes.Equal(mangled, data) {
			t.Fatal("digest field not found in snapshot")
		}
		if err := os.WriteFile(snapPath, mangled, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := NewFile(FileOptions{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		_, err = st.Get("s_x")
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("get = %v, want ErrCorrupt", err)
		}
		var mm *session.MismatchError
		if !errors.As(err, &mm) || mm.Field != "dataset digest" {
			t.Fatalf("want wrapped digest MismatchError, got %v", err)
		}
	})

	t.Run("missing snapshot with wal is typed", func(t *testing.T) {
		dir, _ := prep(t)
		if err := os.Remove(filepath.Join(dir, "sessions", "s_x", "snapshot.json")); err != nil {
			t.Fatal(err)
		}
		st, err := NewFile(FileOptions{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if _, err := st.Get("s_x"); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("get = %v, want ErrCorrupt", err)
		}
	})
}

func TestFileListDeleteNotFound(t *testing.T) {
	dir := t.TempDir()
	st, err := NewFile(FileOptions{Dir: dir, Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Get("s_missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get missing: %v, want ErrNotFound", err)
	}
	if err := st.Delete("s_missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete missing: %v, want ErrNotFound", err)
	}
	if _, err := st.Get("../escape"); !errors.Is(err, ErrInvalidID) {
		t.Fatalf("traversal id: %v, want ErrInvalidID", err)
	}

	s, cr := newTestSession(t, 5, 2, 4)
	for _, id := range []string{"s_b", "s_a"} {
		if err := st.Put(id, s); err != nil {
			t.Fatal(err)
		}
	}
	answerN(t, s, cr, 2, func() {
		if err := st.Put("s_a", s); err != nil {
			t.Fatal(err)
		}
	})
	if err := st.Flush(); err != nil { // SyncNone: flush is the durability point
		t.Fatal(err)
	}
	res, err := st.Scan()
	if err != nil || !reflect.DeepEqual(res.IDs, []string{"s_a", "s_b"}) {
		t.Fatalf("scan ids = %v, %v", res.IDs, err)
	}
	if err := st.Delete("s_a"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get("s_a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get after delete: %v, want ErrNotFound", err)
	}
	// A Put racing a Delete must not resurrect the directory.
	if err := st.Put("s_a", s); !errors.Is(err, ErrNotFound) {
		t.Fatalf("put after delete: %v, want ErrNotFound", err)
	}
	res, err = st.Scan()
	if err != nil || !reflect.DeepEqual(res.IDs, []string{"s_b"}) {
		t.Fatalf("scan ids after delete = %v, %v", res.IDs, err)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	if p, err := ParseSyncPolicy("always"); err != nil || p != SyncAlways {
		t.Fatalf("always: %v %v", p, err)
	}
	if p, err := ParseSyncPolicy("none"); err != nil || p != SyncNone {
		t.Fatalf("none: %v %v", p, err)
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("bogus policy accepted")
	}
}
