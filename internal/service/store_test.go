package service

import (
	"context"
	"testing"
	"time"

	"crowdtopk/internal/dist"
	"crowdtopk/internal/obs"
	"crowdtopk/internal/persist"
	"crowdtopk/internal/session"
	"crowdtopk/internal/tpo"
)

// storeTestSession builds a small session directly (no HTTP) for white-box
// store tests.
func storeTestSession(t *testing.T) *session.Session {
	t.Helper()
	ds := make([]dist.Distribution, 5)
	for i := range ds {
		u, err := dist.NewUniformAround(float64(i)*0.5, 1.6)
		if err != nil {
			t.Fatal(err)
		}
		ds[i] = u
	}
	s, err := session.New(session.Config{Dists: ds, K: 2, Budget: 4})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// newDiskStore builds a store over a file backend with a TTL long enough
// that the janitor never interferes; tests drive eviction explicitly.
func newDiskStore(t *testing.T) *store {
	t.Helper()
	disk, err := persist.NewFile(persist.FileOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	st, err := newStore(time.Minute, 0, disk, obs.NopLogger(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.close)
	return st
}

// entrySession reads the session object the store's entry for id holds (nil
// when the entry is missing or disk-only).
func entrySession(st *store, id string) *session.Session {
	st.mu.Lock()
	defer st.mu.Unlock()
	if m := st.meta[id]; m != nil {
		return m.sess
	}
	return nil
}

// TestMarkDirtyReattachesEvictedSession pins the stale-handler path: a
// request handler that held the session across a TTL eviction can still
// accept an answer, and the dirty hook must bring that very object back into
// the store's entry so the acked answer reaches the durable backend.
func TestMarkDirtyReattachesEvictedSession(t *testing.T) {
	st := newDiskStore(t)
	sess := storeTestSession(t)
	id, err := st.add(sess)
	if err != nil {
		t.Fatal(err)
	}
	qs, _, err := sess.NextQuestions(1)
	if err != nil || len(qs) == 0 {
		t.Fatalf("no question issued (err %v)", err)
	}
	st.evictToDisk(id, time.Now().Add(time.Hour))
	if n := st.len(); n != 0 {
		t.Fatalf("session not evicted: %d live", n)
	}
	// The held handler's answer lands on the evicted object.
	if err := sess.SubmitAnswer(tpo.Answer{Q: qs[0], Yes: true}); err != nil {
		t.Fatal(err)
	}
	if n := st.len(); n != 1 {
		t.Fatalf("dirty hook did not re-attach: %d live", n)
	}
	if cur := entrySession(st, id); cur != sess {
		t.Fatalf("store entry holds %p, want the answering object %p", cur, sess)
	}
	// The answer is durable: a restore from the backend sees it.
	st.flush()
	re, err := st.disk.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := re.Status().Asked, sess.Status().Asked; got != want || want == 0 {
		t.Fatalf("restored session has %d answers, live fork has %d", got, want)
	}
}

// TestMarkDirtyResolvesHydrationFork covers the race the plain re-attach
// misses: after the eviction, a lazy hydration loads a second object for the
// same id from disk; the held handler then accepts an answer on the original.
// Two forks now exist and the resident one is missing an acked answer — the
// store must swap the fork with more accepted progress back in, or the
// durable write triggered by the answer would persist a copy without it.
func TestMarkDirtyResolvesHydrationFork(t *testing.T) {
	st := newDiskStore(t)
	sess := storeTestSession(t)
	id, err := st.add(sess)
	if err != nil {
		t.Fatal(err)
	}
	qs, _, err := sess.NextQuestions(1)
	if err != nil || len(qs) == 0 {
		t.Fatalf("no question issued (err %v)", err)
	}
	st.evictToDisk(id, time.Now().Add(time.Hour))
	cur, err := st.get(context.Background(), id) // lazy hydration: a distinct object for the same id
	if err != nil {
		t.Fatal(err)
	}
	if cur == sess {
		t.Fatal("hydration returned the evicted object; fork not reproduced")
	}
	if err := sess.SubmitAnswer(tpo.Answer{Q: qs[0], Yes: true}); err != nil {
		t.Fatal(err)
	}
	if got := entrySession(st, id); got != sess {
		t.Fatalf("store kept the stale hydrated fork %p, want %p", got, sess)
	}
	st.flush()
	re, err := st.disk.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if got := re.Status().Asked; got != 1 {
		t.Fatalf("durable copy has %d answers, want 1 (the acked answer was lost)", got)
	}
}

// TestListRowsInternallyConsistent pins the listing snapshot semantics: the
// session object is captured under the same lock hold that read the entry,
// so a row cannot lose an already-captured session to a concurrent delete.
func TestListRowsInternallyConsistent(t *testing.T) {
	st, err := newStore(time.Minute, 0, nil, obs.NopLogger(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.close)
	sess := storeTestSession(t)
	id, err := st.add(sess)
	if err != nil {
		t.Fatal(err)
	}

	items, total := st.list(0)
	if total != 1 || len(items) != 1 || !items[0].hydrated || items[0].sess != sess {
		t.Fatalf("live row not captured: total %d, items %+v", total, items)
	}

	// A delete after the snapshot cannot invalidate a captured row: the
	// handler can still read consistent state off it.
	items, _ = st.list(0)
	var row listItem
	for _, it := range items {
		if it.id == id {
			row = it
		}
	}
	st.remove(id)
	if row.sess == nil {
		t.Fatal("captured row lost its session")
	}
	if got := row.sess.Status(); got.Asked != 0 {
		t.Fatalf("captured row state inconsistent: %+v", got)
	}
}
