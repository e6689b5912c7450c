package service

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crowdtopk/internal/obs"
	"crowdtopk/internal/persist"
	"crowdtopk/internal/tpo"
)

// checkResident fails unless len() counts exactly the table entries holding
// a session. Call it only while no store operation is in flight.
func checkResident(t *testing.T, st *store) {
	t.Helper()
	st.mu.Lock()
	n := 0
	for _, m := range st.meta {
		if m.sess != nil {
			n++
		}
	}
	st.mu.Unlock()
	if got := st.len(); got != n {
		t.Fatalf("len() = %d, but %d entries hold a session", got, n)
	}
}

// fillToMax adds max sessions as creates do, checking that saturated()
// turns true exactly with the last one.
func fillToMax(t *testing.T, st *store, max int) []string {
	t.Helper()
	ids := make([]string, max)
	for i := range ids {
		if st.saturated() {
			t.Fatalf("saturated with %d of %d sessions", i, max)
		}
		if err := st.reserve(); err != nil {
			t.Fatal(err)
		}
		id, err := st.add(storeTestSession(t))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	if !st.saturated() {
		t.Fatalf("not saturated at %d sessions", max)
	}
	if err := st.reserve(); !errors.Is(err, ErrFull) {
		t.Fatalf("reserve at capacity: %v, want ErrFull", err)
	}
	return ids
}

// getsAfter runs n gets on id and reports an error for any that succeeds
// although removed was already set when it started.
func getsAfter(t *testing.T, st *store, id string, removed *atomic.Bool, n int) {
	for i := 0; i < n; i++ {
		after := removed.Load()
		if _, err := st.get(context.Background(), id); after && err == nil {
			t.Errorf("get returned %s after its removal", id)
			return
		}
	}
}

// TestStoreRegistryInvariants drives the session table through every
// transition that adds or drops a resident session — add, evict, hydrate,
// held-handler re-attach, remove, and memory-only TTL eviction — some of
// them concurrently on shared ids. At every quiescent point len() counts
// exactly the entries holding a session and saturated() is true exactly at
// MaxSessions, and no get started after a removal returns the removed id.
func TestStoreRegistryInvariants(t *testing.T) {
	ctx := context.Background()
	far := time.Now().Add(2 * time.Hour) // past every entry's TTL

	t.Run("durable", func(t *testing.T) {
		disk, err := persist.NewFile(persist.FileOptions{Dir: t.TempDir(), Sync: persist.SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		st, err := newStore(time.Hour, 3, disk, obs.NopLogger(), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(st.close)
		for round := 0; round < 10; round++ {
			ids := fillToMax(t, st, 3)
			checkResident(t, st)
			a, b, c := ids[0], ids[1], ids[2]

			// A handler holds b across its eviction with a question in hand.
			held := entrySession(st, b)
			qs, _, err := held.NextQuestions(1)
			if err != nil || len(qs) == 0 {
				t.Fatalf("no question issued (err %v)", err)
			}
			st.evictToDisk(b, far)
			checkResident(t, st)
			if st.saturated() {
				t.Fatal("still saturated after an eviction")
			}
			// c lives on disk only, so the gets racing its removal hydrate.
			st.evictToDisk(c, far)
			checkResident(t, st)

			var removed atomic.Bool
			var wg sync.WaitGroup
			run := func(f func()) {
				wg.Add(1)
				go func() { defer wg.Done(); f() }()
			}
			run(func() { // the held answer re-attaches b's object...
				if err := held.SubmitAnswer(tpo.Answer{Q: qs[0], Yes: true}); err != nil {
					t.Error(err)
				}
			})
			run(func() { // ...while a lazy hydration of b races it
				if _, err := st.get(ctx, b); err != nil {
					t.Error(err)
				}
			})
			run(func() { st.evictToDisk(a, far) })
			run(func() {
				if _, err := st.get(ctx, a); err != nil {
					t.Error(err)
				}
			})
			run(func() { st.remove(c); removed.Store(true) })
			run(func() { getsAfter(t, st, c, &removed, 50) })
			run(func() { getsAfter(t, st, c, &removed, 50) })
			wg.Wait()
			checkResident(t, st)
			if got := entrySession(st, b); got != held {
				t.Fatalf("entry for b holds %p, want the answering object %p", got, held)
			}

			for _, id := range []string{c, a, b} {
				st.remove(id)
				if _, err := st.get(ctx, id); !errors.Is(err, ErrNotFound) {
					t.Fatalf("get after remove: %v, want ErrNotFound", err)
				}
			}
			checkResident(t, st)
			if st.len() != 0 || st.saturated() {
				t.Fatalf("empty table: len %d, saturated %v", st.len(), st.saturated())
			}
		}
	})

	t.Run("memory", func(t *testing.T) {
		st, err := newStore(time.Hour, 2, nil, obs.NopLogger(), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(st.close)
		for round := 0; round < 10; round++ {
			ids := fillToMax(t, st, 2)
			checkResident(t, st)
			var evicted atomic.Bool
			var wg sync.WaitGroup
			wg.Add(1 + len(ids))
			go func() { defer wg.Done(); st.evictIdle(far); evicted.Store(true) }()
			for _, id := range ids {
				go func(id string) { defer wg.Done(); getsAfter(t, st, id, &evicted, 50) }(id)
			}
			wg.Wait()
			checkResident(t, st)
			if st.len() != 0 || st.saturated() {
				t.Fatalf("after memory-only eviction: len %d, saturated %v", st.len(), st.saturated())
			}
			for _, id := range ids {
				if _, err := st.get(ctx, id); !errors.Is(err, ErrNotFound) {
					t.Fatalf("get after eviction: %v, want ErrNotFound", err)
				}
			}
		}
	})
}
