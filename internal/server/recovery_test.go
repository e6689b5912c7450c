package server_test

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	crowdtopk "crowdtopk"
	"crowdtopk/internal/persist"
	"crowdtopk/internal/server"
)

// statsJSON mirrors the /v1/stats wire form the durability tests inspect.
type statsJSON struct {
	Sessions int `json:"sessions"`
	Store    struct {
		Backend         string `json:"backend"`
		LiveSessions    int    `json:"live_sessions"`
		KnownSessions   int    `json:"known_sessions"`
		DirtySessions   int    `json:"dirty_sessions"`
		EvictionsToDisk uint64 `json:"evictions_to_disk"`
		HydrationHits   uint64 `json:"hydration_hits"`
		HydrationMisses uint64 `json:"hydration_misses"`
		PersistErrors   uint64 `json:"persist_errors"`
		PersistRetries  uint64 `json:"persist_retries"`
		EvictionsRef    uint64 `json:"evictions_refused"`
		DegradedMode    bool   `json:"degraded_mode"`
		BreakerState    string `json:"breaker_state"`
		Quarantined     int    `json:"quarantined_sessions"`
		Persist         *struct {
			Snapshots         uint64 `json:"snapshots"`
			WALAppends        uint64 `json:"wal_appends"`
			Replays           uint64 `json:"replays"`
			RecoveredSessions uint64 `json:"recovered_sessions"`
			Fsyncs            uint64 `json:"fsyncs"`
		} `json:"persist"`
	} `json:"store"`
}

func getStats(t *testing.T, ts *httptest.Server) statsJSON {
	t.Helper()
	var st statsJSON
	if code := doJSON(t, ts.Client(), "GET", ts.URL+"/v1/stats", nil, &st); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	return st
}

// waitDurable polls /v1/stats until the async persister has drained: every
// acknowledged answer is then on disk (fsync policy always), which is the
// moment a SIGKILL loses nothing.
func waitDurable(t *testing.T, ts *httptest.Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st := getStats(t, ts); st.Store.DirtySessions == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("persister did not drain")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// answerUpTo pulls and answers questions until n answers are in (or the
// session terminates), returning how many were submitted.
func answerUpTo(t *testing.T, ts *httptest.Server, id string, cr crowdtopk.Crowd, n int) int {
	t.Helper()
	base := ts.URL + "/v1/sessions/"
	answered := 0
	for answered < n {
		var qs questionsResponse
		if code := doJSON(t, ts.Client(), "GET", base+id+"/questions", nil, &qs); code != http.StatusOK {
			t.Fatalf("questions: status %d", code)
		}
		if len(qs.Questions) == 0 {
			return answered
		}
		for _, q := range qs.Questions {
			a := cr.Ask(crowdtopk.Question{I: q.I, J: q.J})
			payload := map[string]any{"answers": []map[string]any{{"i": q.I, "j": q.J, "yes": a.Yes}}}
			if code := doJSON(t, ts.Client(), "POST", base+id+"/answers", payload, nil); code != http.StatusOK {
				t.Fatalf("answers: status %d", code)
			}
			answered++
			if answered >= n {
				break
			}
		}
	}
	return answered
}

func sameAPIResult(t *testing.T, got, want resultResponse) {
	t.Helper()
	if got.State != want.State || got.Asked != want.Asked ||
		got.Resolved != want.Resolved || got.Orderings != want.Orderings {
		t.Fatalf("state/asked/resolved/orderings = %s/%d/%v/%d, want %s/%d/%v/%d",
			got.State, got.Asked, got.Resolved, got.Orderings,
			want.State, want.Asked, want.Resolved, want.Orderings)
	}
	if math.Abs(got.Uncertainty-want.Uncertainty) > 1e-12 {
		t.Fatalf("uncertainty = %v, want %v", got.Uncertainty, want.Uncertainty)
	}
	if len(got.Ranking) != len(want.Ranking) {
		t.Fatalf("ranking %v, want %v", got.Ranking, want.Ranking)
	}
	for i := range got.Ranking {
		if got.Ranking[i] != want.Ranking[i] {
			t.Fatalf("ranking %v, want %v", got.Ranking, want.Ranking)
		}
	}
}

// TestCrashRecoveryMatchesUninterrupted is the durability acceptance test: a
// server killed hot mid-query (no Shutdown, no Flush — the process just
// stops, like SIGKILL) restarts on the same -data-dir, recovers the session
// from snapshot + WAL replay, and finishes with results identical to a run
// that was never interrupted. Runs once with the WAL intact across the whole
// query and once with an aggressive compaction cadence so the kill lands
// between snapshots.
func TestCrashRecoveryMatchesUninterrupted(t *testing.T) {
	specs, scores := uniformWorkload()
	ds, err := crowdtopk.NewDataset(scores)
	if err != nil {
		t.Fatal(err)
	}
	const k, budget, seed = 3, 30, 42

	// The uninterrupted reference run, served with persistence on so the
	// only variable in the crash runs is the kill itself.
	reference := func(t *testing.T, snapshotEvery int) resultResponse {
		store, err := persist.NewFile(persist.FileOptions{Dir: t.TempDir(), SnapshotEvery: snapshotEvery})
		if err != nil {
			t.Fatal(err)
		}
		srv := newServer(t, server.Config{Persist: store})
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		var info sessionInfo
		if code := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/sessions", map[string]any{
			"tuples": specs, "k": k, "budget": budget, "seed": seed,
		}, &info); code != http.StatusCreated {
			t.Fatalf("create: status %d", code)
		}
		cr, _, err := crowdtopk.SimulatedCrowd(ds, 1, 1, seed)
		if err != nil {
			t.Fatal(err)
		}
		res, _ := driveOverAPI(t, ts, info.ID, cr, -1)
		return res
	}

	for _, tc := range []struct {
		name          string
		snapshotEvery int
		killAfter     int
	}{
		{"replay-from-initial-snapshot", 64, 5},
		{"kill-between-compactions", 4, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := reference(t, tc.snapshotEvery)

			dir := t.TempDir()
			store, err := persist.NewFile(persist.FileOptions{Dir: dir, SnapshotEvery: tc.snapshotEvery})
			if err != nil {
				t.Fatal(err)
			}
			srv1 := newServer(t, server.Config{Persist: store})
			ts1 := httptest.NewServer(srv1.Handler())
			var info sessionInfo
			if code := doJSON(t, ts1.Client(), "POST", ts1.URL+"/v1/sessions", map[string]any{
				"tuples": specs, "k": k, "budget": budget, "seed": seed,
			}, &info); code != http.StatusCreated {
				t.Fatalf("create: status %d", code)
			}
			// Create only queues the initial snapshot; let it land so the
			// answers below go to the WAL on top of it (a late first write
			// would be a full snapshot that already holds them).
			waitDurable(t, ts1)
			cr, _, err := crowdtopk.SimulatedCrowd(ds, 1, 1, seed)
			if err != nil {
				t.Fatal(err)
			}
			n := answerUpTo(t, ts1, info.ID, cr, tc.killAfter)
			if n != tc.killAfter {
				t.Fatalf("only %d answers in before the kill point %d", n, tc.killAfter)
			}
			waitDurable(t, ts1)
			// SIGKILL: stop routing requests and abandon the server without
			// Shutdown, Flush or Close. Open file handles and goroutines die
			// with the process in production; here they are simply never
			// used again.
			ts1.Close()

			srv2 := newServer(t, server.Config{Persist: mustFile(t, dir, tc.snapshotEvery)})
			defer srv2.Close()
			ts2 := httptest.NewServer(srv2.Handler())
			defer ts2.Close()

			// Boot recovery: the session is addressable before any request
			// touched it.
			st := getStats(t, ts2)
			if st.Store.KnownSessions != 1 || st.Store.LiveSessions != 0 {
				t.Fatalf("boot: known/live = %d/%d, want 1/0", st.Store.KnownSessions, st.Store.LiveSessions)
			}

			// The same crowd continues where it left off (reliability-1
			// simulated crowds are stateless oracles).
			got, _ := driveOverAPI(t, ts2, info.ID, cr, -1)
			sameAPIResult(t, got, want)

			st = getStats(t, ts2)
			if st.Store.HydrationHits != 1 {
				t.Errorf("hydration_hits = %d, want 1", st.Store.HydrationHits)
			}
			if st.Store.Persist == nil || st.Store.Persist.RecoveredSessions != 1 {
				t.Errorf("persist counters after recovery: %+v", st.Store.Persist)
			}
			if tc.name == "replay-from-initial-snapshot" && st.Store.Persist != nil &&
				st.Store.Persist.Replays != uint64(tc.killAfter) {
				t.Errorf("replays = %d, want %d", st.Store.Persist.Replays, tc.killAfter)
			}
		})
	}
}

func mustFile(t *testing.T, dir string, snapshotEvery int) *persist.File {
	t.Helper()
	store, err := persist.NewFile(persist.FileOptions{Dir: dir, SnapshotEvery: snapshotEvery})
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// TestGracefulCloseFlushes: with the lenient fsync policy, Close is the
// durability barrier — a server closed cleanly loses nothing even though no
// per-answer fsync happened.
func TestGracefulCloseFlushes(t *testing.T) {
	specs, scores := uniformWorkload()
	ds, err := crowdtopk.NewDataset(scores)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store, err := persist.NewFile(persist.FileOptions{Dir: dir, Sync: persist.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	srv1 := newServer(t, server.Config{Persist: store})
	ts1 := httptest.NewServer(srv1.Handler())
	var info sessionInfo
	if code := doJSON(t, ts1.Client(), "POST", ts1.URL+"/v1/sessions", map[string]any{
		"tuples": specs, "k": 2, "budget": 8, "seed": 7,
	}, &info); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	cr, _, err := crowdtopk.SimulatedCrowd(ds, 1, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	answerUpTo(t, ts1, info.ID, cr, 3)
	var want resultResponse
	if code := doJSON(t, ts1.Client(), "GET", ts1.URL+"/v1/sessions/"+info.ID+"/result", nil, &want); code != http.StatusOK {
		t.Fatalf("result: status %d", code)
	}
	ts1.Close()
	srv1.Close() // graceful: drains the persister, flushes, closes the store

	srv2 := newServer(t, server.Config{Persist: mustFile(t, dir, 0)})
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	var got resultResponse
	if code := doJSON(t, ts2.Client(), "GET", ts2.URL+"/v1/sessions/"+info.ID+"/result", nil, &got); code != http.StatusOK {
		t.Fatalf("result after restart: status %d", code)
	}
	sameAPIResult(t, got, want)
}

// TestEvictionToDiskAndHydration: with a durable backend, the TTL janitor
// moves idle sessions to disk instead of dropping them, and the next access
// hydrates transparently — where the memory-only server would 404.
func TestEvictionToDiskAndHydration(t *testing.T) {
	specs, _ := uniformWorkload()
	dir := t.TempDir()
	srv := newServer(t, server.Config{TTL: 50 * time.Millisecond, Persist: mustFile(t, dir, 0)})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var info sessionInfo
	if code := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/sessions", map[string]any{
		"tuples": specs, "k": 2, "budget": 5,
	}, &info); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	// Wait (without touching the session) until the janitor moved it out of
	// memory.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := getStats(t, ts)
		if st.Store.EvictionsToDisk >= 1 && st.Store.LiveSessions == 0 {
			if st.Store.KnownSessions != 1 {
				t.Fatalf("known_sessions = %d after eviction, want 1", st.Store.KnownSessions)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session not evicted to disk: %+v", st.Store)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// The session is still served: lazy hydration brings it back.
	var res resultResponse
	if code := doJSON(t, ts.Client(), "GET", ts.URL+"/v1/sessions/"+info.ID+"/result", nil, &res); code != http.StatusOK {
		t.Fatalf("result after eviction: status %d, want 200", code)
	}
	st := getStats(t, ts)
	if st.Store.HydrationHits < 1 {
		t.Errorf("hydration_hits = %d, want ≥ 1", st.Store.HydrationHits)
	}
	if st.Store.LiveSessions != 1 {
		t.Errorf("live_sessions = %d after hydration, want 1", st.Store.LiveSessions)
	}
}

// TestCorruptHydrationQuarantines: on-disk corruption discovered during lazy
// hydration moves the session to the quarantine area and surfaces as 410 Gone
// — a 404 would convince the client the session never existed, and a
// persistent 500 would page forever on a condition retries cannot fix. The
// quarantined session stays visible in the listing with a typed reason, and
// its directory survives under quarantine/ for forensics.
func TestCorruptHydrationQuarantines(t *testing.T) {
	specs, _ := uniformWorkload()
	dir := t.TempDir()
	srv1 := newServer(t, server.Config{Persist: mustFile(t, dir, 0)})
	ts1 := httptest.NewServer(srv1.Handler())
	var info sessionInfo
	if code := doJSON(t, ts1.Client(), "POST", ts1.URL+"/v1/sessions", map[string]any{
		"tuples": specs, "k": 2, "budget": 5,
	}, &info); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	waitDurable(t, ts1)
	ts1.Close()
	srv1.Close()

	snap := filepath.Join(dir, "sessions", info.ID, "snapshot.json")
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	mangled := bytes.Replace(data, []byte(`"digest":"sha256:`), []byte(`"digest":"sha256:00`), 1)
	if err := os.WriteFile(snap, mangled, 0o644); err != nil {
		t.Fatal(err)
	}

	srv2 := newServer(t, server.Config{Persist: mustFile(t, dir, 0)})
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	// First touch trips the quarantine; the status is 410, and it stays 410
	// on retry instead of re-attempting the doomed hydration.
	for i := 0; i < 2; i++ {
		if code := doJSON(t, ts2.Client(), "GET", ts2.URL+"/v1/sessions/"+info.ID+"/result", nil, nil); code != http.StatusGone {
			t.Fatalf("corrupt hydration (touch %d): status %d, want 410", i, code)
		}
	}
	// The session directory moved to the quarantine area with its marker.
	if _, err := os.Stat(filepath.Join(dir, "quarantine", info.ID, "quarantine.json")); err != nil {
		t.Errorf("quarantine marker: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "sessions", info.ID)); !os.IsNotExist(err) {
		t.Errorf("session dir still present after quarantine (err=%v)", err)
	}
	// The listing keeps the session visible with the typed reason.
	var list struct {
		Sessions []struct {
			ID               string `json:"id"`
			State            string `json:"state"`
			QuarantineReason string `json:"quarantine_reason"`
		} `json:"sessions"`
		Total int `json:"total"`
	}
	if code := doJSON(t, ts2.Client(), "GET", ts2.URL+"/v1/sessions", nil, &list); code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	found := false
	for _, e := range list.Sessions {
		if e.ID == info.ID {
			found = true
			if e.State != "quarantined" || e.QuarantineReason != "corrupt-snapshot" {
				t.Errorf("listed as %q/%q, want quarantined/corrupt-snapshot", e.State, e.QuarantineReason)
			}
		}
	}
	if !found {
		t.Errorf("quarantined session missing from listing: %+v", list)
	}
	if st := getStats(t, ts2); st.Store.Quarantined != 1 {
		t.Errorf("quarantined_sessions = %d, want 1", st.Store.Quarantined)
	}
	// An id that was never created is still a plain 404.
	if code := doJSON(t, ts2.Client(), "GET", ts2.URL+"/v1/sessions/s_unknown/result", nil, nil); code != http.StatusNotFound {
		t.Fatalf("unknown id: status %d, want 404", code)
	}
	// A restart on the same data dir boots cleanly — the boot scan lists the
	// quarantined session instead of failing startup — and still serves 410.
	srv3 := newServer(t, server.Config{Persist: mustFile(t, dir, 0)})
	defer srv3.Close()
	ts3 := httptest.NewServer(srv3.Handler())
	defer ts3.Close()
	if code := doJSON(t, ts3.Client(), "GET", ts3.URL+"/v1/sessions/"+info.ID+"/result", nil, nil); code != http.StatusGone {
		t.Fatalf("after restart: status %d, want 410", code)
	}
}

// TestSessionsListEndpoint pins the operability listing: ids, live status
// fields, persistence flags, and the limit parameter.
func TestSessionsListEndpoint(t *testing.T) {
	specs, _ := uniformWorkload()
	srv := newServer(t, server.Config{Persist: mustFile(t, t.TempDir(), 0)})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ids := map[string]bool{}
	for i := 0; i < 3; i++ {
		var info sessionInfo
		if code := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/sessions", map[string]any{
			"tuples": specs, "k": 2, "budget": 5,
		}, &info); code != http.StatusCreated {
			t.Fatalf("create %d: status %d", i, code)
		}
		ids[info.ID] = true
	}
	waitDurable(t, ts)

	var list struct {
		Sessions []struct {
			ID          string  `json:"id"`
			State       string  `json:"state"`
			Asked       int     `json:"asked"`
			Pending     int     `json:"pending"`
			IdleSeconds float64 `json:"idle_seconds"`
			Persisted   bool    `json:"persisted"`
			Hydrated    bool    `json:"hydrated"`
		} `json:"sessions"`
		Total int `json:"total"`
	}
	if code := doJSON(t, ts.Client(), "GET", ts.URL+"/v1/sessions", nil, &list); code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	if list.Total != 3 || len(list.Sessions) != 3 {
		t.Fatalf("total/page = %d/%d, want 3/3", list.Total, len(list.Sessions))
	}
	for i, e := range list.Sessions {
		if !ids[e.ID] {
			t.Errorf("listed unknown id %q", e.ID)
		}
		if e.State != "created" || !e.Hydrated || !e.Persisted {
			t.Errorf("entry %d = %+v, want created/hydrated/persisted", i, e)
		}
		if e.IdleSeconds < 0 {
			t.Errorf("entry %d idle %v < 0", i, e.IdleSeconds)
		}
		if i > 0 && list.Sessions[i-1].ID > e.ID {
			t.Errorf("listing not sorted: %q before %q", list.Sessions[i-1].ID, e.ID)
		}
	}

	// limit pages the listing; total still reports the full count.
	if code := doJSON(t, ts.Client(), "GET", ts.URL+"/v1/sessions?limit=2", nil, &list); code != http.StatusOK {
		t.Fatalf("limited list: status %d", code)
	}
	if list.Total != 3 || len(list.Sessions) != 2 {
		t.Fatalf("limited total/page = %d/%d, want 3/2", list.Total, len(list.Sessions))
	}
	if code := doJSON(t, ts.Client(), "GET", ts.URL+"/v1/sessions?limit=0", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("limit=0: status %d, want 400", code)
	}
	if code := doJSON(t, ts.Client(), "GET", ts.URL+"/v1/sessions?limit=x", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("limit=x: status %d, want 400", code)
	}
}

// TestStatsDurabilityCounters: the store section of /v1/stats reports the
// backend and its persistence counters.
func TestStatsDurabilityCounters(t *testing.T) {
	specs, scores := uniformWorkload()
	ds, err := crowdtopk.NewDataset(scores)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("memory", func(t *testing.T) {
		srv := newServer(t, server.Config{})
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		st := getStats(t, ts)
		if st.Store.Backend != "memory" || st.Store.Persist != nil {
			t.Fatalf("memory-only store stats = %+v", st.Store)
		}
	})

	t.Run("file", func(t *testing.T) {
		srv := newServer(t, server.Config{Persist: mustFile(t, t.TempDir(), 0)})
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		var info sessionInfo
		if code := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/sessions", map[string]any{
			"tuples": specs, "k": 2, "budget": 6, "seed": 3,
		}, &info); code != http.StatusCreated {
			t.Fatalf("create: status %d", code)
		}
		// As in TestCrashRecoveryMatchesUninterrupted: let the queued
		// initial snapshot land first, so the answers are WAL appends.
		waitDurable(t, ts)
		cr, _, err := crowdtopk.SimulatedCrowd(ds, 1, 1, 3)
		if err != nil {
			t.Fatal(err)
		}
		n := answerUpTo(t, ts, info.ID, cr, 4)
		waitDurable(t, ts)
		st := getStats(t, ts)
		if st.Store.Backend != "file" {
			t.Fatalf("backend = %q, want file", st.Store.Backend)
		}
		if st.Store.Persist == nil {
			t.Fatal("persist counters missing")
		}
		if st.Store.Persist.Snapshots < 1 {
			t.Errorf("snapshots = %d, want ≥ 1", st.Store.Persist.Snapshots)
		}
		if st.Store.Persist.WALAppends < uint64(n) {
			t.Errorf("wal_appends = %d, want ≥ %d", st.Store.Persist.WALAppends, n)
		}
		if st.Store.Persist.Fsyncs < 1 {
			t.Errorf("fsyncs = %d, want ≥ 1", st.Store.Persist.Fsyncs)
		}
	})
}
