package server_test

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"crowdtopk/internal/obs"
	"crowdtopk/internal/persist"
	"crowdtopk/internal/server"
	"crowdtopk/sdk"
)

// createSession posts a fresh uniform-workload session and returns its id.
func createSession(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	specs, _ := uniformWorkload()
	var info sessionInfo
	if code := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/sessions",
		map[string]any{"tuples": specs, "k": 2, "budget": 6}, &info); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	return info.ID
}

var (
	// Label values are quoted strings that may themselves contain '{'/'}'
	// (route templates do), so the matcher walks quoted values, not braces.
	labelPair  = `[a-zA-Z_][a-zA-Z0-9_]*="(?:\\.|[^"\\])*"`
	sampleLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{` + labelPair + `(?:,` + labelPair + `)*\})? [^ ]+$`)
	helpLine   = regexp.MustCompile(`^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?$`)
)

// scrape fetches /metrics, validates every line against the exposition
// grammar, and returns the body.
func scrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content-type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if !helpLine.MatchString(line) {
				t.Fatalf("malformed comment line: %q", line)
			}
			continue
		}
		if !sampleLine.MatchString(line) {
			t.Fatalf("malformed sample line: %q", line)
		}
	}
	return string(raw)
}

// TestMetricsEndpointCoversAllLayers drives real traffic through a persisted
// server and asserts the scrape carries every layer's families: HTTP latency
// histograms by route, WAL fsync latency, pool saturation, π-cache hit rate,
// session-state gauges — the acceptance surface of the observability issue.
func TestMetricsEndpointCoversAllLayers(t *testing.T) {
	disk, err := persist.NewFile(persist.FileOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(t, server.Config{Persist: disk})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	id := createSession(t, ts)
	var qs questionsResponse
	if code := doJSON(t, ts.Client(), "GET", ts.URL+"/v1/sessions/"+id+"/questions?n=1", nil, &qs); code != 200 {
		t.Fatalf("questions: status %d", code)
	}
	if len(qs.Questions) > 0 {
		q := qs.Questions[0]
		if code := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/sessions/"+id+"/answers",
			map[string]any{"answers": []map[string]any{{"i": q.I, "j": q.J, "yes": true}}}, nil); code != 200 {
			t.Fatalf("answers: status %d", code)
		}
	}
	srv.Flush() // force WAL activity so the fsync histogram has samples

	body := scrape(t, ts)
	for _, want := range []string{
		`crowdtopk_http_request_duration_seconds_bucket{route="/v1/sessions",le="+Inf"}`,
		`crowdtopk_http_requests_total{method="POST",route="/v1/sessions",status="201"}`,
		"crowdtopk_wal_fsync_seconds_bucket",
		"crowdtopk_wal_append_seconds_count",
		"crowdtopk_pool_saturation",
		"crowdtopk_pcache_hit_rate",
		`crowdtopk_sessions_by_state{state=`,
		"crowdtopk_sessions_live 1",
		"crowdtopk_answers_accepted_total",
		"crowdtopk_persist_activity_total{op=\"fsync\"}",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", want)
		}
	}

	// The HTTP latency histogram must be internally consistent: the +Inf
	// bucket equals the count for the create route.
	inf := extractValue(t, body, `crowdtopk_http_request_duration_seconds_bucket{route="/v1/sessions",le="+Inf"}`)
	cnt := extractValue(t, body, `crowdtopk_http_request_duration_seconds_count{route="/v1/sessions"}`)
	if inf != cnt || cnt < 1 {
		t.Fatalf("+Inf bucket %v != count %v", inf, cnt)
	}
}

func extractValue(t *testing.T, body, prefix string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, prefix+" ") {
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, prefix+" "), 64)
			if err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("no sample with prefix %q", prefix)
	return 0
}

// TestAdmissionRateLimitPerClient pins the acceptance criterion: a client
// over its token bucket gets 429 with a Retry-After header while a different
// client's requests keep succeeding.
func TestAdmissionRateLimitPerClient(t *testing.T) {
	srv := newServer(t, server.Config{RateLimit: 0.5, RateBurst: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(client string) *http.Response {
		req, err := http.NewRequest("GET", ts.URL+"/v1/stats", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Forwarded-For", client)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// Exhaust the abuser's burst of 2.
	for i := 0; i < 2; i++ {
		if resp := get("10.0.0.1"); resp.StatusCode != http.StatusOK {
			t.Fatalf("in-burst request %d: status %d", i, resp.StatusCode)
		}
	}
	resp := get("10.0.0.1")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-burst request: status %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After %q, want integer >= 1", resp.Header.Get("Retry-After"))
	}
	// The other client is unaffected.
	if resp := get("10.0.0.2"); resp.StatusCode != http.StatusOK {
		t.Fatalf("independent client: status %d, want 200", resp.StatusCode)
	}
	// Probes bypass admission even for the throttled client.
	req, _ := http.NewRequest("GET", ts.URL+"/health", nil)
	req.Header.Set("X-Forwarded-For", "10.0.0.1")
	hresp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("/health for throttled client: status %d", hresp.StatusCode)
	}
}

// TestAdmissionMaxInflight pins the overload path: with one inflight slot
// held by a stalled request, the next API request sheds with 503 and a
// Retry-After header; when the slot frees, requests flow again.
func TestAdmissionMaxInflight(t *testing.T) {
	srv := newServer(t, server.Config{MaxInflight: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Hold the only slot: a create whose body never finishes arriving keeps
	// its handler (and admission slot) pinned inside the JSON decoder.
	pr, pw := io.Pipe()
	// Runs before ts.Close on a failed test: the server cannot finish a
	// request whose body never ends.
	defer pw.CloseWithError(io.ErrUnexpectedEOF)
	req, err := http.NewRequest("POST", ts.URL+"/v1/sessions", pr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := ts.Client().Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()

	// Wait until the stalled request occupies the slot, then expect a shed.
	// /metrics bypasses admission, so polling it cannot take the slot; an
	// API probe sent before the create is admitted could, and the create
	// would then be the request shed.
	deadline := time.Now().Add(5 * time.Second)
	for extractValue(t, scrape(t, ts), "crowdtopk_admission_inflight") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("stalled create never admitted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	for {
		resp, err := ts.Client().Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("503 without Retry-After")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never saw 503 while slot held (last status %d)", resp.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}

	pw.CloseWithError(io.ErrUnexpectedEOF) // release the stalled request
	<-done
	deadline = time.Now().Add(5 * time.Second)
	for {
		resp, err := ts.Client().Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never released (status %d)", resp.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestHealthAndReadiness pins the probe semantics: /health always answers
// 200 while serving; /ready flips to 503 when the session pool saturates and
// recovers when capacity returns.
func TestHealthAndReadiness(t *testing.T) {
	srv := newServer(t, server.Config{MaxSessions: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status := func(path string) int {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := status("/health"); got != http.StatusOK {
		t.Fatalf("/health: %d", got)
	}
	if got := status("/ready"); got != http.StatusOK {
		t.Fatalf("/ready before saturation: %d", got)
	}

	id := createSession(t, ts) // fills the single session slot
	if got := status("/ready"); got != http.StatusServiceUnavailable {
		t.Fatalf("/ready at saturation: %d, want 503", got)
	}
	if got := status("/health"); got != http.StatusOK {
		t.Fatalf("/health at saturation: %d, want 200 (liveness is not readiness)", got)
	}
	var body struct {
		Ready   bool     `json:"ready"`
		Reasons []string `json:"reasons"`
	}
	if code := doJSON(t, ts.Client(), "GET", ts.URL+"/ready", nil, &body); code != http.StatusServiceUnavailable {
		t.Fatalf("/ready body fetch: %d", code)
	}
	if body.Ready || len(body.Reasons) == 0 {
		t.Fatalf("unready body lacks reasons: %+v", body)
	}

	if code := doJSON(t, ts.Client(), "DELETE", ts.URL+"/v1/sessions/"+id, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: %d", code)
	}
	if got := status("/ready"); got != http.StatusOK {
		t.Fatalf("/ready after capacity returned: %d", got)
	}
}

// blockedWriter models a hung audit sink: every Write blocks until the test
// releases it.
type blockedWriter struct{ release chan struct{} }

func (w *blockedWriter) Write(p []byte) (int, error) {
	<-w.release
	return len(p), nil
}

// TestStalledAuditSinkDoesNotBlockAnswers pins the acceptance criterion:
// with the audit sink wedged solid, answer submissions still complete
// promptly (events are dropped, not awaited) and the drops are counted.
func TestStalledAuditSinkDoesNotBlockAnswers(t *testing.T) {
	w := &blockedWriter{release: make(chan struct{})}
	audit := obs.NewAuditLog(obs.AuditConfig{W: w, Queue: 2, BatchSize: 1, FlushInterval: time.Millisecond})
	srv := newServer(t, server.Config{Audit: audit})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	id := createSession(t, ts)
	// Submit many single-answer batches; each emits one audit event into a
	// queue of 2 in front of a wedged writer, so most must drop.
	submitted := 0
	start := time.Now()
	for submitted < 6 {
		var qs questionsResponse
		if code := doJSON(t, ts.Client(), "GET",
			fmt.Sprintf("%s/v1/sessions/%s/questions?n=1", ts.URL, id), nil, &qs); code != 200 {
			t.Fatalf("questions: status %d", code)
		}
		if terminal(qs.State) || len(qs.Questions) == 0 {
			break
		}
		q := qs.Questions[0]
		if code := doJSON(t, ts.Client(), "POST",
			fmt.Sprintf("%s/v1/sessions/%s/answers", ts.URL, id),
			map[string]any{"answers": []map[string]any{{"i": q.I, "j": q.J, "yes": true}}}, nil); code != 200 {
			t.Fatalf("answers: status %d", code)
		}
		submitted++
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("answer path blocked behind the audit sink: %d batches took %s", submitted, elapsed)
	}
	if submitted < 3 {
		t.Fatalf("workload too small to contend the sink: %d batches", submitted)
	}
	if audit.Dropped() == 0 {
		t.Fatal("no dropped audit events counted despite a wedged sink")
	}
	body := scrape(t, ts)
	if !strings.Contains(body, "crowdtopk_audit_dropped_total") {
		t.Error("scrape missing crowdtopk_audit_dropped_total")
	}

	close(w.release) // unwedge so Close (via srv.Close) can drain
	srv.Close()
}

// TestMetricNameParityHTTPvsSDK pins the exposition parity discipline: the
// SDK's Client.Metrics() and the HTTP server's GET /metrics render the same
// registry, so after driving both front doors the family-name sets are
// identical — an embedder's dashboards work unchanged against either.
func TestMetricNameParityHTTPvsSDK(t *testing.T) {
	srv := newServer(t, server.Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	createSession(t, ts)
	httpNames := familyNames(t, scrape(t, ts))

	client, err := sdk.New(sdk.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	raw, err := client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	sdkNames := familyNames(t, string(raw))

	if len(httpNames) == 0 {
		t.Fatal("HTTP scrape exposed no families")
	}
	for name := range httpNames {
		if !sdkNames[name] {
			t.Errorf("family %q exposed over HTTP but absent from sdk.Client.Metrics()", name)
		}
	}
	for name := range sdkNames {
		if !httpNames[name] {
			t.Errorf("family %q exposed by sdk.Client.Metrics() but absent over HTTP", name)
		}
	}
}

// familyNames extracts the set of metric family names from TYPE lines.
func familyNames(t *testing.T, body string) map[string]bool {
	t.Helper()
	names := make(map[string]bool)
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, _, _ := strings.Cut(rest, " ")
			names[name] = true
		}
	}
	return names
}
