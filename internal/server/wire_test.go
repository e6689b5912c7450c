package server_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"crowdtopk/internal/server"
)

// keysOf returns the sorted top-level field names of a JSON object.
func keysOf(t *testing.T, raw []byte) []string {
	t.Helper()
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(raw, &obj); err != nil {
		t.Fatalf("not a JSON object: %q: %v", raw, err)
	}
	keys := make([]string, 0, len(obj))
	for k := range obj {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func wantKeys(t *testing.T, what string, raw []byte, want ...string) map[string]json.RawMessage {
	t.Helper()
	sort.Strings(want)
	got := keysOf(t, raw)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("%s fields = %v, want %v", what, got, want)
	}
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(raw, &obj); err != nil {
		t.Fatal(err)
	}
	return obj
}

// rawGET fetches url and returns the status and raw body.
func rawGET(t *testing.T, ts *httptest.Server, url string) (int, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + url)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

func rawPOST(t *testing.T, ts *httptest.Server, url string, body any) (int, []byte) {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+url, "application/json", strings.NewReader(string(payload)))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// TestWireCompatibility is the golden test for the /v1 wire format: it pins
// the exact JSON field set of every response the API produces, so a refactor
// that renames, drops or accidentally adds a field — in the codec or in the
// service views it now encodes directly — fails loudly instead of silently
// breaking deployed clients.
func TestWireCompatibility(t *testing.T) {
	specs, _ := uniformWorkload()
	srv := newServer(t, server.Config{Persist: mustFile(t, t.TempDir(), 0)})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// POST /v1/sessions → 201 session info.
	code, raw := rawPOST(t, ts, "/v1/sessions", map[string]any{"tuples": specs, "k": 2, "budget": 5})
	if code != http.StatusCreated {
		t.Fatalf("create: status %d: %s", code, raw)
	}
	info := wantKeys(t, "create", raw,
		"id", "state", "tuples", "asked", "budget", "pending", "orderings")
	var id string
	if err := json.Unmarshal(info["id"], &id); err != nil {
		t.Fatal(err)
	}

	// GET /v1/sessions/{id}/questions → questions view, with each question's
	// own field set.
	code, raw = rawGET(t, ts, "/v1/sessions/"+id+"/questions?n=1")
	if code != http.StatusOK {
		t.Fatalf("questions: status %d", code)
	}
	qv := wantKeys(t, "questions", raw, "state", "questions", "asked", "budget")
	var qlist []json.RawMessage
	if err := json.Unmarshal(qv["questions"], &qlist); err != nil || len(qlist) != 1 {
		t.Fatalf("questions array: %s (err %v)", qv["questions"], err)
	}
	wantKeys(t, "question", qlist[0], "i", "j", "prompt")
	var q struct{ I, J int }
	if err := json.Unmarshal(qlist[0], &q); err != nil {
		t.Fatal(err)
	}

	// POST /v1/sessions/{id}/answers → batch ack.
	code, raw = rawPOST(t, ts, "/v1/sessions/"+id+"/answers",
		map[string]any{"answers": []map[string]any{{"i": q.I, "j": q.J, "yes": true}}})
	if code != http.StatusOK {
		t.Fatalf("answers: status %d: %s", code, raw)
	}
	wantKeys(t, "answers", raw, "state", "accepted", "asked", "pending", "contradictions")

	// GET /v1/sessions/{id}/result → full result view.
	code, raw = rawGET(t, ts, "/v1/sessions/"+id+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: status %d", code)
	}
	wantKeys(t, "result", raw,
		"state", "ranking", "names", "resolved", "orderings", "uncertainty",
		"asked", "budget", "pending", "contradictions")

	// GET /v1/sessions → listing. The session absorbed one answer and the
	// planner refilled its round, so asked and pending are both present —
	// they carry omitempty, exercised by the fresh-session case below.
	waitDurable(t, ts)
	code, raw = rawGET(t, ts, "/v1/sessions")
	if code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	lv := wantKeys(t, "list", raw, "sessions", "total")
	var entries []json.RawMessage
	if err := json.Unmarshal(lv["sessions"], &entries); err != nil || len(entries) != 1 {
		t.Fatalf("list entries: %s (err %v)", lv["sessions"], err)
	}
	wantKeys(t, "list entry", entries[0],
		"id", "state", "asked", "pending", "idle_seconds", "persisted", "hydrated")

	// A session that never absorbed an answer omits its zero-valued asked
	// rather than encoding 0 (pending stays: creation plans the first round).
	code, raw = rawPOST(t, ts, "/v1/sessions", map[string]any{"tuples": specs, "k": 2, "budget": 5})
	if code != http.StatusCreated {
		t.Fatalf("second create: status %d", code)
	}
	fresh := wantKeys(t, "second create", raw,
		"id", "state", "tuples", "asked", "budget", "pending", "orderings")
	var freshID string
	if err := json.Unmarshal(fresh["id"], &freshID); err != nil {
		t.Fatal(err)
	}
	code, raw = rawGET(t, ts, "/v1/sessions")
	if code != http.StatusOK {
		t.Fatalf("second list: status %d", code)
	}
	if err := json.Unmarshal(wantKeys(t, "second list", raw, "sessions", "total")["sessions"], &entries); err != nil {
		t.Fatal(err)
	}
	for _, entry := range entries {
		var e struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(entry, &e); err != nil {
			t.Fatal(err)
		}
		if e.ID == freshID {
			wantKeys(t, "fresh list entry", entry,
				"id", "state", "pending", "idle_seconds", "persisted", "hydrated")
		}
	}

	// GET /v1/stats → operational snapshot, nested sections included.
	code, raw = rawGET(t, ts, "/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	sv := wantKeys(t, "stats", raw,
		"sessions", "store", "pcache", "pcache_window", "selection_live")
	store := wantKeys(t, "stats.store", sv["store"],
		"backend", "live_sessions", "known_sessions", "dirty_sessions",
		"evictions_to_disk", "hydration_hits", "hydration_misses",
		"persist_errors", "persist_retries", "evictions_refused",
		"degraded_mode", "breaker_state", "quarantined_sessions", "persist")
	wantKeys(t, "stats.store.persist", store["persist"],
		"snapshots", "wal_appends", "replays", "recovered_sessions",
		"fsyncs", "torn_wal_tails", "quarantines")
	wantKeys(t, "stats.pcache", sv["pcache"],
		"hits", "misses", "entries", "resets", "hit_rate",
		"prewarm_pairs", "prewarm_ns")
	wantKeys(t, "stats.pcache_window", sv["pcache_window"], "hits", "misses", "hit_rate")
	wantKeys(t, "stats.selection_live", sv["selection_live"],
		"reuses", "rebuilds", "compactions", "invalidations")

	// GET /v1/sessions/{id}/checkpoint → the versioned envelope, with its
	// optional sections (answers, pending) populated mid-query.
	code, raw = rawGET(t, ts, "/v1/sessions/"+id+"/checkpoint")
	if code != http.StatusOK {
		t.Fatalf("checkpoint: status %d", code)
	}
	env := wantKeys(t, "checkpoint", raw,
		"schema", "kind", "dataset", "digest", "config", "state",
		"asked", "contradictions", "rng_draws", "answers", "pending", "leaves")
	wantKeys(t, "checkpoint.config", env["config"],
		"k", "budget", "algorithm", "measure", "reliability", "round_size", "seed")

	// Error envelope: a plain failure carries exactly {"error"}.
	code, raw = rawGET(t, ts, "/v1/sessions/s_nope/result")
	if code != http.StatusNotFound {
		t.Fatalf("unknown session: status %d", code)
	}
	wantKeys(t, "error", raw, "error")

	// A mid-batch failure adds the accepted count, nothing else.
	code, raw = rawPOST(t, ts, "/v1/sessions/"+id+"/answers",
		map[string]any{"answers": []map[string]any{{"i": 0, "j": 0, "yes": true}}})
	if code != http.StatusBadRequest {
		t.Fatalf("self-comparison: status %d", code)
	}
	wantKeys(t, "batch error", raw, "error", "accepted")
}

// TestMuxErrorsAreJSON: routing failures produced by the mux itself — paths
// that match nothing and methods a route does not allow — speak the same
// JSON error envelope as the handlers, not net/http's text/plain default.
func TestMuxErrorsAreJSON(t *testing.T) {
	srv := newServer(t, server.Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Unrouted path → JSON 404.
	resp, err := ts.Client().Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unrouted path: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("404 Content-Type = %q, want application/json", ct)
	}
	wantKeys(t, "mux 404", raw, "error")

	// Wrong method on a real route → JSON 405, Allow header preserved.
	req, err := http.NewRequest("DELETE", ts.URL+"/v1/stats", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("wrong method: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("405 Content-Type = %q, want application/json", ct)
	}
	if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "GET") {
		t.Fatalf("405 Allow = %q, want it to keep GET", allow)
	}
	wantKeys(t, "mux 405", raw, "error")

	// Handler-produced JSON bodies pass through untouched: a real 404 from
	// the session store still carries its own message.
	resp, err = ts.Client().Get(ts.URL + "/v1/sessions/s_nope/result")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Error, "no such session") {
		t.Fatalf("handler 404 message lost: %q", e.Error)
	}
}
