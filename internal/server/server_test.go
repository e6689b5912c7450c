package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	crowdtopk "crowdtopk"
	"crowdtopk/internal/server"
)

// newServer builds a server, failing the test on a store error.
func newServer(t *testing.T, cfg server.Config) *server.Server {
	t.Helper()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// doJSON performs one API call, decoding the response JSON into out (which
// may be nil) and returning the status code.
func doJSON(t *testing.T, client *http.Client, method, url string, body, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && len(raw) > 0 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode
}

// uniformWorkload is the golden-test workload: 6 overlapping uniform scores.
// specs is the wire form the API accepts; scores the public constructor form
// Process consumes — the same score model through both front doors.
func uniformWorkload() (specs []map[string]any, scores []crowdtopk.Uncertain) {
	centers := []float64{1.0, 1.3, 1.6, 1.9, 2.2, 2.5}
	const width = 1.6
	for _, c := range centers {
		specs = append(specs, map[string]any{
			"family": "uniform",
			"params": []float64{c - width/2, c + width/2},
		})
		scores = append(scores, crowdtopk.UniformScore(c, width))
	}
	return specs, scores
}

type sessionInfo struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Tuples    int    `json:"tuples"`
	Asked     int    `json:"asked"`
	Budget    int    `json:"budget"`
	Pending   int    `json:"pending"`
	Orderings int    `json:"orderings"`
}

type questionJSON struct {
	I      int    `json:"i"`
	J      int    `json:"j"`
	Prompt string `json:"prompt"`
}

type questionsResponse struct {
	State     string         `json:"state"`
	Questions []questionJSON `json:"questions"`
	Asked     int            `json:"asked"`
	Budget    int            `json:"budget"`
}

type resultResponse struct {
	State       string   `json:"state"`
	Ranking     []int    `json:"ranking"`
	Names       []string `json:"names"`
	Resolved    bool     `json:"resolved"`
	Orderings   int      `json:"orderings"`
	Uncertainty float64  `json:"uncertainty"`
	Asked       int      `json:"asked"`
}

func terminal(state string) bool { return state == "converged" || state == "exhausted" }

// driveOverAPI answers every pending question with cr until the session
// terminates, returning the result. checkpointAt >= 0 injects a full
// checkpoint → delete → restore cycle once that many answers are in,
// continuing under the new session id.
func driveOverAPI(t *testing.T, ts *httptest.Server, id string, cr crowdtopk.Crowd, checkpointAt int) (resultResponse, string) {
	t.Helper()
	base := ts.URL + "/v1/sessions/"
	answered := 0
	for round := 0; round < 1000; round++ {
		var qs questionsResponse
		if code := doJSON(t, ts.Client(), "GET", base+id+"/questions", nil, &qs); code != http.StatusOK {
			t.Fatalf("questions: status %d", code)
		}
		if len(qs.Questions) == 0 {
			if !terminal(qs.State) {
				t.Fatalf("no questions but state %q not terminal", qs.State)
			}
			break
		}
		for _, q := range qs.Questions {
			a := cr.Ask(crowdtopk.Question{I: q.I, J: q.J})
			payload := map[string]any{"answers": []map[string]any{{"i": q.I, "j": q.J, "yes": a.Yes}}}
			var ar struct {
				State string `json:"state"`
			}
			if code := doJSON(t, ts.Client(), "POST", base+id+"/answers", payload, &ar); code != http.StatusOK {
				t.Fatalf("answers: status %d", code)
			}
			answered++
			if checkpointAt >= 0 && answered == checkpointAt {
				id = checkpointRestore(t, ts, id)
				checkpointAt = -1
				break // the restored session may plan fresh questions; re-pull
			}
		}
	}
	var res resultResponse
	if code := doJSON(t, ts.Client(), "GET", base+id+"/result", nil, &res); code != http.StatusOK {
		t.Fatalf("result: status %d", code)
	}
	return res, id
}

// checkpointRestore pulls the session's checkpoint, deletes it server-side
// (simulating a crash or redeploy) and restores it as a new session.
func checkpointRestore(t *testing.T, ts *httptest.Server, id string) string {
	t.Helper()
	base := ts.URL + "/v1/sessions/"
	resp, err := ts.Client().Get(base + id + "/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint: status %d err %v", resp.StatusCode, err)
	}
	req, err := http.NewRequest("DELETE", base+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	del, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	del.Body.Close()
	if del.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d", del.StatusCode)
	}
	var info sessionInfo
	if code := doJSON(t, ts.Client(), "POST", strings.TrimSuffix(base, "/"),
		map[string]any{"checkpoint": json.RawMessage(raw)}, &info); code != http.StatusCreated {
		t.Fatalf("restore: status %d", code)
	}
	return info.ID
}

// TestServedQueryMatchesProcess completes a top-K query entirely over the
// HTTP API and checks the ranking equals the synchronous Process() call on
// the same workload, same seed — once straight through, and once with a
// checkpoint → delete → restore injected mid-query.
func TestServedQueryMatchesProcess(t *testing.T) {
	specs, scores := uniformWorkload()
	ds, err := crowdtopk.NewDataset(scores)
	if err != nil {
		t.Fatal(err)
	}
	const k, budget, seed = 3, 30, 42
	cr, _, err := crowdtopk.SimulatedCrowd(ds, 1, 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := crowdtopk.Process(ds, crowdtopk.Query{K: k, Budget: budget, Seed: seed}, cr)
	if err != nil {
		t.Fatal(err)
	}

	for _, checkpointAt := range []int{-1, 3} {
		name := "straight"
		if checkpointAt >= 0 {
			name = "checkpoint-midway"
		}
		t.Run(name, func(t *testing.T) {
			srv := newServer(t, server.Config{})
			defer srv.Close()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			var info sessionInfo
			code := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/sessions", map[string]any{
				"tuples": specs, "k": k, "budget": budget, "seed": seed,
			}, &info)
			if code != http.StatusCreated {
				t.Fatalf("create: status %d", code)
			}
			if info.State != "created" || info.Tuples != len(specs) {
				t.Fatalf("create info %+v", info)
			}

			apiCrowd, _, err := crowdtopk.SimulatedCrowd(ds, 1, 1, seed)
			if err != nil {
				t.Fatal(err)
			}
			res, _ := driveOverAPI(t, ts, info.ID, apiCrowd, checkpointAt)

			if res.Asked != want.QuestionsAsked {
				t.Errorf("asked = %d, want %d", res.Asked, want.QuestionsAsked)
			}
			if res.Resolved != want.Resolved || res.Orderings != want.Orderings {
				t.Errorf("resolved/orderings = %v/%d, want %v/%d", res.Resolved, res.Orderings, want.Resolved, want.Orderings)
			}
			if len(res.Ranking) != len(want.Ranking) {
				t.Fatalf("ranking %v, want %v", res.Ranking, want.Ranking)
			}
			for i := range res.Ranking {
				if res.Ranking[i] != want.Ranking[i] {
					t.Fatalf("ranking %v, want %v", res.Ranking, want.Ranking)
				}
			}
		})
	}
}

// TestConcurrentSessions drives several sessions on distinct datasets
// through one server at the same time; under -race this pins the store's
// and the shared worker budget's concurrency safety.
func TestConcurrentSessions(t *testing.T) {
	srv := newServer(t, server.Config{Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const n = 4
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("panic: %v", r)
				}
			}()
			centers := []float64{1.0, 1.4, 1.8, 2.2, 2.6}
			var specs []map[string]any
			var scores []crowdtopk.Uncertain
			width := 1.4 + 0.2*float64(i) // distinct datasets per session
			for _, c := range centers {
				specs = append(specs, map[string]any{"family": "uniform", "params": []float64{c - width/2, c + width/2}})
				scores = append(scores, crowdtopk.UniformScore(c, width))
			}
			ds, err := crowdtopk.NewDataset(scores)
			if err != nil {
				errs[i] = err
				return
			}
			cr, _, err := crowdtopk.SimulatedCrowd(ds, 1, 1, int64(100+i))
			if err != nil {
				errs[i] = err
				return
			}
			var info sessionInfo
			if code := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/sessions", map[string]any{
				"tuples": specs, "k": 2, "budget": 10, "algorithm": "incr",
			}, &info); code != http.StatusCreated {
				errs[i] = fmt.Errorf("create: status %d", code)
				return
			}
			res, _ := driveOverAPI(t, ts, info.ID, cr, -1)
			if !terminal(res.State) {
				errs[i] = fmt.Errorf("session %d not terminal: %+v", i, res)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("session %d: %v", i, err)
		}
	}
}

// withConfig returns a copy of a decoded checkpoint's config with one field
// set.
func withConfig(env map[string]any, key string, v any) map[string]any {
	cfg := map[string]any{key: v}
	for k, old := range env["config"].(map[string]any) {
		if k != key {
			cfg[k] = old
		}
	}
	return cfg
}

// TestServerErrorPaths pins the API's typed failure modes.
func TestServerErrorPaths(t *testing.T) {
	srv := newServer(t, server.Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Unknown session → 404.
	if code := doJSON(t, ts.Client(), "GET", ts.URL+"/v1/sessions/s_nope/result", nil, nil); code != http.StatusNotFound {
		t.Errorf("unknown id: status %d, want 404", code)
	}
	// Bad dataset → 400.
	if code := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/sessions", map[string]any{
		"tuples": []map[string]any{{"family": "uniform", "params": []float64{2, 1}}}, "k": 1, "budget": 2,
	}, nil); code != http.StatusBadRequest {
		t.Errorf("bad dataset: status %d, want 400", code)
	}
	// Bad k → 400.
	specs, _ := uniformWorkload()
	if code := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/sessions", map[string]any{
		"tuples": specs, "k": 99, "budget": 2,
	}, nil); code != http.StatusBadRequest {
		t.Errorf("bad k: status %d, want 400", code)
	}
	// Unknown measure is a client error, not a 500.
	if code := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/sessions", map[string]any{
		"tuples": specs, "k": 2, "budget": 2, "measure": "bogus",
	}, nil); code != http.StatusBadRequest {
		t.Errorf("bad measure: status %d, want 400", code)
	}
	// Unknown algorithm likewise.
	if code := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/sessions", map[string]any{
		"tuples": specs, "k": 2, "budget": 2, "algorithm": "bogus",
	}, nil); code != http.StatusBadRequest {
		t.Errorf("bad algorithm: status %d, want 400", code)
	}
	// A negative incr round size is rejected before any tree is built.
	if code := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/sessions", map[string]any{
		"tuples": specs, "k": 2, "budget": 2, "algorithm": "incr", "round_size": -1,
	}, nil); code != http.StatusBadRequest {
		t.Errorf("negative round_size: status %d, want 400", code)
	}
	// The build grid is bounded before anything is sampled on it; none of
	// these reaches an allocation.
	for _, grid := range []int{-1, 1<<16 + 1, 1 << 30} {
		if code := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/sessions", map[string]any{
			"tuples": specs, "k": 2, "budget": 2, "grid_size": grid,
		}, nil); code != http.StatusBadRequest {
			t.Errorf("grid_size %d: status %d, want 400", grid, code)
		}
	}

	// Create a real session, then answer a question that was never issued →
	// 409 conflict.
	var info sessionInfo
	if code := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/sessions", map[string]any{
		"tuples": specs, "k": 2, "budget": 5,
	}, &info); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	var qs questionsResponse
	if code := doJSON(t, ts.Client(), "GET", ts.URL+"/v1/sessions/"+info.ID+"/questions?n=1", nil, &qs); code != http.StatusOK {
		t.Fatalf("questions: status %d", code)
	}
	if len(qs.Questions) != 1 {
		t.Fatalf("n=1 returned %d questions", len(qs.Questions))
	}
	q := qs.Questions[0]
	other := map[string]any{"i": q.I, "j": q.J}
	// Find a pair that is not the pending question.
	for a := 0; a < len(specs); a++ {
		for b := a + 1; b < len(specs); b++ {
			if a != q.I || b != q.J {
				other = map[string]any{"i": a, "j": b, "yes": true}
			}
		}
	}
	if code := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/sessions/"+info.ID+"/answers",
		map[string]any{"answers": []map[string]any{other}}, nil); code != http.StatusConflict {
		t.Errorf("unissued answer: status %d, want 409", code)
	}

	// A checkpoint with a corrupted digest → 400.
	resp, err := ts.Client().Get(ts.URL + "/v1/sessions/" + info.ID + "/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	corrupt := bytes.Replace(raw, []byte(`"digest":"sha256:`), []byte(`"digest":"sha256:00`), 1)
	if code := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/sessions",
		map[string]any{"checkpoint": json.RawMessage(corrupt)}, nil); code != http.StatusBadRequest {
		t.Errorf("corrupt checkpoint: status %d, want 400", code)
	}

	// Structurally inconsistent checkpoints are client errors (400), not
	// 500s: an unknown state, an answer count that contradicts asked, an
	// absurd RNG position (which must also be rejected without replaying
	// it — a crafted value near 2^64 would otherwise spin the CPU), and an
	// incr configuration with a negative round size that restore would
	// have to replan with.
	var env map[string]any
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(map[string]any){
		"unknown state":  func(e map[string]any) { e["state"] = "bogus" },
		"asked mismatch": func(e map[string]any) { e["asked"] = 7 },
		"huge rng_draws": func(e map[string]any) { e["rng_draws"] = float64(1 << 40) },
		"negative round_size": func(e map[string]any) {
			cfg := map[string]any{}
			for k, v := range e["config"].(map[string]any) {
				cfg[k] = v
			}
			cfg["algorithm"], cfg["round_size"] = "incr", -1
			e["config"] = cfg
			delete(e, "pending")
		},
		"huge grid_size":        func(e map[string]any) { e["config"] = withConfig(e, "grid_size", 1<<30) },
		"negative prob_epsilon": func(e map[string]any) { e["config"] = withConfig(e, "prob_epsilon", -1) },
	} {
		e := map[string]any{}
		for k, v := range env {
			e[k] = v
		}
		mutate(e)
		bad, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if code := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/sessions",
			map[string]any{"checkpoint": json.RawMessage(bad)}, nil); code != http.StatusBadRequest {
			t.Errorf("%s checkpoint: status %d, want 400", name, code)
		}
	}

	// A mid-batch self-comparison → 400 that still reports how many answers
	// were accepted before it, like every other mid-batch failure.
	var ackErr struct {
		Error    string `json:"error"`
		Accepted int    `json:"accepted"`
	}
	if code := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/sessions/"+info.ID+"/answers",
		map[string]any{"answers": []map[string]any{
			{"i": q.I, "j": q.J, "yes": true},
			{"i": 0, "j": 0, "yes": true},
		}}, &ackErr); code != http.StatusBadRequest {
		t.Errorf("self-comparison: status %d, want 400", code)
	}
	if ackErr.Accepted != 1 {
		t.Errorf("self-comparison accepted = %d, want 1", ackErr.Accepted)
	}
}

// TestServerCloseIdempotent: embedders commonly both defer Close and call it
// on a shutdown-signal path; the second call must be a no-op, not a panic.
func TestServerCloseIdempotent(t *testing.T) {
	srv := newServer(t, server.Config{})
	srv.Close()
	srv.Close()
}

// TestStatsEndpoint: session counts and π-cache counters are exposed.
func TestStatsEndpoint(t *testing.T) {
	srv := newServer(t, server.Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	specs, _ := uniformWorkload()
	var info sessionInfo
	if code := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/sessions", map[string]any{
		"tuples": specs, "k": 2, "budget": 3,
	}, &info); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	var stats struct {
		Sessions int `json:"sessions"`
		PCache   struct {
			Hits         int64   `json:"hits"`
			Misses       int64   `json:"misses"`
			Entries      int64   `json:"entries"`
			Resets       int64   `json:"resets"`
			HitRate      float64 `json:"hit_rate"`
			PrewarmPairs int64   `json:"prewarm_pairs"`
			PrewarmNanos int64   `json:"prewarm_ns"`
		} `json:"pcache"`
	}
	if code := doJSON(t, ts.Client(), "GET", ts.URL+"/v1/stats", nil, &stats); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if stats.Sessions != 1 {
		t.Errorf("sessions = %d, want 1", stats.Sessions)
	}
	if stats.PCache.Hits+stats.PCache.Misses == 0 {
		t.Error("pcache counters all zero after a session build")
	}
	// Session creation prewarms the π cache: the cold-start fill must be
	// visible (pair count and fill time), and the hit rate derivable.
	if stats.PCache.PrewarmPairs == 0 {
		t.Error("prewarm pair count zero after a session build")
	}
	if stats.PCache.PrewarmNanos <= 0 {
		t.Error("prewarm fill time not surfaced")
	}
	if stats.PCache.HitRate <= 0 || stats.PCache.HitRate > 1 {
		t.Errorf("hit rate = %g, want in (0, 1]", stats.PCache.HitRate)
	}
}

// TestTTLEviction: idle sessions are evicted by the janitor; active ones
// have their TTL refreshed by use.
func TestTTLEviction(t *testing.T) {
	srv := newServer(t, server.Config{TTL: 50 * time.Millisecond})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	specs, _ := uniformWorkload()
	var info sessionInfo
	if code := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/sessions", map[string]any{
		"tuples": specs, "k": 2, "budget": 3,
	}, &info); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	// Each API call refreshes the TTL, so poll with gaps comfortably longer
	// than the TTL: an idle stretch must span a janitor sweep to evict.
	deadline := time.Now().Add(5 * time.Second)
	for {
		time.Sleep(150 * time.Millisecond)
		code := doJSON(t, ts.Client(), "GET", ts.URL+"/v1/sessions/"+info.ID+"/result", nil, nil)
		if code == http.StatusNotFound {
			break // evicted
		}
		if time.Now().After(deadline) {
			t.Fatal("session not evicted after TTL")
		}
	}
}

// TestMaxSessions: creates beyond the cap fail with 503 until a slot frees.
func TestMaxSessions(t *testing.T) {
	srv := newServer(t, server.Config{MaxSessions: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	specs, _ := uniformWorkload()
	body := map[string]any{"tuples": specs, "k": 2, "budget": 3}
	var info sessionInfo
	if code := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/sessions", body, &info); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	if code := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/sessions", body, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("over-cap create: status %d, want 503", code)
	}
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/sessions/"+info.ID, nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if code := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/sessions", body, nil); code != http.StatusCreated {
		t.Fatalf("post-delete create: status %d, want 201", code)
	}
}
