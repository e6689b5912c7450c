package server

import (
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"crowdtopk/internal/obs"
)

// tracesResponse is the /debug/traces wire shape: the retained traces
// (newest first) after filtering, plus the count so a dashboard can render
// "showing N" without re-counting.
type tracesResponse struct {
	Count  int             `json:"count"`
	Traces []obs.TraceData `json:"traces"`
}

// handleTraces serves the tracer's ring of retained traces as JSON, newest
// first. Query parameters: route (exact match on the root route label),
// min_ms (minimum root duration in milliseconds), limit (maximum traces
// returned). 404 when tracing is disabled — the ring does not exist, and a
// 404 distinguishes "not collecting" from "collecting, nothing retained".
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	tracer := s.svc.Tracer()
	if !tracer.Enabled() {
		writeErr(w, http.StatusNotFound, fmt.Errorf("tracing disabled (serve -trace-sample 0)"))
		return
	}
	f := obs.TraceFilter{Route: r.URL.Query().Get("route")}
	if raw := r.URL.Query().Get("min_ms"); raw != "" {
		ms, err := strconv.ParseFloat(raw, 64)
		// ParseFloat accepts NaN and ±Inf, and a product past MaxInt64 ns
		// converts to an arbitrary Duration that silently disables the
		// filter; both are client errors.
		ns := ms * float64(time.Millisecond)
		if err != nil || !(ms >= 0) || ns >= math.MaxInt64 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad min_ms %q", raw))
			return
		}
		f.MinDuration = time.Duration(ns)
	}
	if raw := r.URL.Query().Get("limit"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", raw))
			return
		}
		f.Limit = v
	}
	traces := tracer.Traces(f)
	if traces == nil {
		traces = []obs.TraceData{} // "traces": [] rather than null
	}
	writeJSON(w, tracesResponse{Count: len(traces), Traces: traces})
}

// registerPprof mounts the Go profiler under /debug/pprof/. Wired explicitly
// rather than via the net/http/pprof side-effect import so the handlers only
// exist on servers that opted in (Config.EnablePprof; the serve subcommand
// additionally refuses to enable it on a non-loopback listener unless
// -pprof-public is also given).
func registerPprof(mux *http.ServeMux) {
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}
