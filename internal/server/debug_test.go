package server_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"crowdtopk/internal/obs"
	"crowdtopk/internal/server"
)

// tracedServer builds a server with an always-sample tracer.
func tracedServer(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	if cfg.Tracer == nil {
		cfg.Tracer = obs.NewTracer(obs.TracerConfig{SampleRate: 1})
	}
	srv := newServer(t, cfg)
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

type tracesResponse struct {
	Count  int             `json:"count"`
	Traces []obs.TraceData `json:"traces"`
}

// TestDebugTracesWireShape is the golden test for GET /debug/traces: drive a
// real request through the stack and pin the response's JSON field names and
// structure.
func TestDebugTracesWireShape(t *testing.T) {
	_, ts := tracedServer(t, server.Config{})
	id := createSession(t, ts)
	_ = id

	resp, err := ts.Client().Get(ts.URL + "/debug/traces?route=/v1/sessions&limit=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("content-type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	// Pin the wire field names before decoding into typed structs.
	var loose struct {
		Count  int `json:"count"`
		Traces []map[string]json.RawMessage
	}
	if err := json.Unmarshal(raw, &loose); err != nil {
		t.Fatalf("decoding %s: %v", raw, err)
	}
	var tr tracesResponse
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Count != 1 || len(tr.Traces) != 1 {
		t.Fatalf("count=%d traces=%d, want 1/1", tr.Count, len(tr.Traces))
	}
	td := tr.Traces[0]
	if td.Route != "/v1/sessions" || td.Status != 201 {
		t.Errorf("root: route=%q status=%d, want /v1/sessions 201", td.Route, td.Status)
	}
	if td.TraceID == "" || len(td.TraceID) != 32 {
		t.Errorf("trace_id %q not 32 hex chars", td.TraceID)
	}
	if !td.Sampled {
		t.Error("rate-1 trace not marked sampled")
	}
	// The create path must show the instrumented layers beneath the codec.
	names := map[string]bool{}
	for _, sp := range td.Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"http.request", "service.create", "session.build", "selection.plan"} {
		if !names[want] {
			t.Errorf("span %q missing from create trace (have %v)", want, names)
		}
	}
	// Raw JSON golden: field spellings the dashboard depends on.
	for _, key := range []string{`"trace_id"`, `"duration_ms"`, `"sampled"`, `"slow"`, `"spans"`,
		`"span_id"`, `"parent"`, `"start_ns"`, `"duration_ns"`, `"self_ns"`, `"attrs"`} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("wire body missing %s", key)
		}
	}
}

// TestTracedRequestSelfTimeAttribution is the acceptance criterion: a traced
// request's component self-times sum to within 5% of the root duration.
func TestTracedRequestSelfTimeAttribution(t *testing.T) {
	_, ts := tracedServer(t, server.Config{})
	id := createSession(t, ts)

	// Drive answers through so selection/session spans appear too.
	for i := 0; i < 6; i++ {
		var qs questionsResponse
		if code := doJSON(t, ts.Client(), "GET", ts.URL+"/v1/sessions/"+id+"/questions?n=1", nil, &qs); code != 200 {
			t.Fatalf("questions: status %d", code)
		}
		if len(qs.Questions) == 0 {
			break
		}
		q := qs.Questions[0]
		if code := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/sessions/"+id+"/answers",
			map[string]any{"answers": []map[string]any{{"i": q.I, "j": q.J, "yes": true}}}, nil); code != 200 {
			t.Fatalf("answers: status %d", code)
		}
	}

	var tr tracesResponse
	if code := doJSON(t, ts.Client(), "GET", ts.URL+"/debug/traces", nil, &tr); code != 200 {
		t.Fatalf("/debug/traces status %d", code)
	}
	if len(tr.Traces) < 3 {
		t.Fatalf("only %d traces retained", len(tr.Traces))
	}
	for _, td := range tr.Traces {
		var selfSum float64
		for _, ms := range obs.SelfTimeBreakdown(td) {
			selfSum += ms
		}
		root := td.DurationMS
		if root == 0 {
			continue
		}
		if diff := selfSum - root; diff > 0.05*root || diff < -0.05*root {
			t.Errorf("trace %s (%s): Σ component self %.3fms vs root %.3fms (%.1f%% off)",
				td.TraceID, td.Route, selfSum, root, 100*(selfSum-root)/root)
		}
	}
	// The attribution also lands on /metrics as per-component histograms.
	body := scrape(t, ts)
	for _, want := range []string{
		`crowdtopk_span_self_seconds_count{component="http"}`,
		`crowdtopk_span_self_seconds_count{component="service"}`,
		`crowdtopk_span_self_seconds_count{component="session"}`,
		`crowdtopk_traces_total{outcome="sampled"}`,
		`crowdtopk_build_info{version=`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// TestTraceparentPropagation: a caller-supplied traceparent joins its trace
// id, records the remote parent, and the response echoes our root span as
// the new parent under the same trace id.
func TestTraceparentPropagation(t *testing.T) {
	_, ts := tracedServer(t, server.Config{})
	const inbound = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	req, _ := http.NewRequest("GET", ts.URL+"/v1/stats", nil)
	req.Header.Set("traceparent", inbound)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	echoed := resp.Header.Get("traceparent")
	gotID, gotSpan, _, err := obs.ParseTraceparent(echoed)
	if err != nil {
		t.Fatalf("response traceparent %q: %v", echoed, err)
	}
	if gotID.String() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("response trace id %s did not join inbound trace", gotID)
	}
	if gotSpan.String() == "00f067aa0ba902b7" {
		t.Error("response span id should be our root span, not the caller's")
	}
	var tr tracesResponse
	if code := doJSON(t, ts.Client(), "GET", ts.URL+"/debug/traces?route=/v1/stats", nil, &tr); code != 200 {
		t.Fatalf("/debug/traces status %d", code)
	}
	if len(tr.Traces) == 0 || tr.Traces[0].ParentSpan != "00f067aa0ba902b7" {
		t.Fatalf("remote parent span not recorded: %+v", tr.Traces)
	}
	// A malformed traceparent starts a fresh trace instead of failing.
	req2, _ := http.NewRequest("GET", ts.URL+"/v1/stats", nil)
	req2.Header.Set("traceparent", "garbage")
	resp2, err := ts.Client().Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != 200 {
		t.Fatalf("malformed traceparent broke the request: %d", resp2.StatusCode)
	}
	if _, _, _, err := obs.ParseTraceparent(resp2.Header.Get("traceparent")); err != nil {
		t.Errorf("fresh traceparent not issued: %v", err)
	}
}

// TestDebugTracesDisabled: without a tracer the endpoint answers 404 — the
// SDK-parity default (no Tracer in Config) serves no debug ring.
func TestDebugTracesDisabled(t *testing.T) {
	srv := newServer(t, server.Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/traces with tracing disabled: %d, want 404", resp.StatusCode)
	}
}

// TestDebugTracesBadParams pins the 400s for unparseable filters.
func TestDebugTracesBadParams(t *testing.T) {
	_, ts := tracedServer(t, server.Config{})
	for _, q := range []string{"min_ms=abc", "min_ms=-1", "min_ms=NaN", "min_ms=Inf", "min_ms=1e300", "limit=0", "limit=x"} {
		resp, err := ts.Client().Get(ts.URL + "/debug/traces?" + q)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("?%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestPprofGate: the profiler only exists when EnablePprof is set.
func TestPprofGate(t *testing.T) {
	srvOff := newServer(t, server.Config{})
	defer srvOff.Close()
	tsOff := httptest.NewServer(srvOff.Handler())
	defer tsOff.Close()
	resp, err := tsOff.Client().Get(tsOff.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof without EnablePprof: %d, want 404", resp.StatusCode)
	}

	_, tsOn := tracedServer(t, server.Config{EnablePprof: true})
	resp2, err := tsOn.Client().Get(tsOn.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("pprof with EnablePprof: %d, want 200", resp2.StatusCode)
	}
}

// TestSlowRequestAuditAndLog: a request past the slow threshold lands in the
// trace ring marked slow even when head sampling would have dropped it.
func TestSlowRequestRetention(t *testing.T) {
	tracer := obs.NewTracer(obs.TracerConfig{SampleRate: 0.0000001, SlowThreshold: time.Nanosecond})
	_, ts := tracedServer(t, server.Config{Tracer: tracer})
	createSession(t, ts)
	traces := tracer.Traces(obs.TraceFilter{Route: "/v1/sessions"})
	if len(traces) == 0 || !traces[0].Slow {
		t.Fatalf("slow request not retained: %+v", traces)
	}
}
