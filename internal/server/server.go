// Package server exposes the transport-agnostic session core
// (internal/service) over a JSON HTTP API, turning the library into a
// long-running service a real crowd platform can integrate with: create a
// session for a dataset, pull the currently best questions, push answers
// whenever workers return them, poll the result, and checkpoint/restore
// across deployments.
//
// Endpoints (see the README for curl examples):
//
//	POST   /v1/sessions                   create (from a dataset or a checkpoint)
//	GET    /v1/sessions                   list known sessions (limit parameter)
//	GET    /v1/sessions/{id}/questions    pull up to n pending questions
//	POST   /v1/sessions/{id}/answers      submit crowd answers
//	GET    /v1/sessions/{id}/result       current top-K belief
//	GET    /v1/sessions/{id}/checkpoint   versioned session envelope
//	DELETE /v1/sessions/{id}              drop the session
//	GET    /v1/stats                      store + persistence + π-cache + live-engine counters
//	GET    /metrics                       Prometheus text exposition (process-wide registry)
//	GET    /health                        liveness: always 200 while serving, body has detail
//	GET    /ready                         readiness: 200 when traffic-ready, else 503
//	GET    /debug/traces                  recent request traces (route/min_ms/limit filters)
//	GET    /debug/pprof/...               Go profiler (only with Config.EnablePprof)
//
// This package is deliberately a codec: every handler decodes the request,
// calls the service, and encodes the result. All session orchestration —
// the store's two persistence tiers, the shared worker budget, load
// shedding, TTL eviction, graceful close — lives in internal/service, where
// the in-process SDK (crowdtopk/sdk) consumes it identically; statusFor is
// the one place the service's typed errors become HTTP statuses, and every
// response (including 404/405 for routes the mux does not know) uses the
// JSON error envelope.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"

	"crowdtopk/internal/dataset"
	"crowdtopk/internal/obs"
	"crowdtopk/internal/service"
	"crowdtopk/internal/session"
	"crowdtopk/internal/tpo"
)

// Config tunes the server; it is the service core's configuration verbatim.
type Config = service.Config

// DefaultTTL is the idle eviction default used by the serve subcommand.
const DefaultTTL = service.DefaultTTL

// Server routes the v1 API. Create with New, expose via Handler, and Close
// when done to stop the eviction janitor.
type Server struct {
	svc *service.Service
	mux *http.ServeMux
	log *slog.Logger
}

// New builds a server over its own service core (session store + worker
// budget). With cfg.Persist set the core also scans the backend so every
// persisted session is immediately addressable (sessions hydrate lazily on
// first access), and takes ownership of the backend.
func New(cfg Config) (*Server, error) {
	svc, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	log := cfg.Logger
	if log == nil {
		log = obs.NopLogger()
	}
	s := &Server{svc: svc, mux: http.NewServeMux(), log: log}
	s.mux.HandleFunc("POST /v1/sessions", s.handleCreate)
	s.mux.HandleFunc("GET /v1/sessions", s.handleList)
	s.mux.HandleFunc("GET /v1/sessions/{id}/questions", s.handleQuestions)
	s.mux.HandleFunc("POST /v1/sessions/{id}/answers", s.handleAnswers)
	s.mux.HandleFunc("GET /v1/sessions/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/sessions/{id}/checkpoint", s.handleCheckpoint)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDelete)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /health", s.handleHealth)
	s.mux.HandleFunc("GET /ready", s.handleReady)
	s.mux.HandleFunc("GET /debug/traces", s.handleTraces)
	if cfg.EnablePprof {
		registerPprof(s.mux)
	}
	return s, nil
}

// Handler returns the HTTP handler for the full surface: the v1 API plus the
// operational endpoints (/metrics, /health, /ready). The instrumentation
// middleware (latency histogram, request counter, structured access log)
// wraps admission control (429/503 with Retry-After when configured; probes
// are exempt) so shed requests are observed too. Unmatched routes and wrong
// methods answer with the JSON error envelope instead of the mux's text/plain
// defaults.
func (s *Server) Handler() http.Handler {
	return instrument(admission(jsonMuxErrors(s.mux), s.svc), s.svc.Tracer(), s.log)
}

// Close stops background eviction, flushes every dirty session to the
// durable backend (when one is configured) and closes it, then drops all
// live sessions. Idempotent.
func (s *Server) Close() { s.svc.Close() }

// Flush synchronously pushes every pending durable write to the backend and
// syncs it. A no-op without a backend.
func (s *Server) Flush() { s.svc.Flush() }

// Sessions reports the number of live sessions (for stats and tests).
func (s *Server) Sessions() int { return s.svc.SessionCount() }

// ---- wire types (request side; responses are the service views) ----

// createRequest creates a session from a dataset, or — when Checkpoint is
// set — restores one from a session envelope (the other fields are then
// ignored: the envelope carries its own configuration).
type createRequest struct {
	Tuples       []dataset.DistSpec `json:"tuples,omitempty"`
	Names        []string           `json:"names,omitempty"`
	K            int                `json:"k,omitempty"`
	Budget       int                `json:"budget,omitempty"`
	Algorithm    string             `json:"algorithm,omitempty"`
	Measure      string             `json:"measure,omitempty"`
	Reliability  float64            `json:"reliability,omitempty"`
	RoundSize    int                `json:"round_size,omitempty"`
	Seed         int64              `json:"seed,omitempty"`
	GridSize     int                `json:"grid_size,omitempty"`
	MaxOrderings int                `json:"max_orderings,omitempty"`
	Checkpoint   json.RawMessage    `json:"checkpoint,omitempty"`
}

type answerRequest struct {
	Answers []struct {
		I   int  `json:"i"`
		J   int  `json:"j"`
		Yes bool `json:"yes"`
	} `json:"answers"`
}

// ---- handlers: decode → service call → encode ----

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req createRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 64<<20)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	info, err := s.svc.CreateOrRestore(r.Context(), service.CreateRequest{
		Tuples:       req.Tuples,
		Names:        req.Names,
		K:            req.K,
		Budget:       req.Budget,
		Algorithm:    req.Algorithm,
		Measure:      req.Measure,
		Reliability:  req.Reliability,
		RoundSize:    req.RoundSize,
		Seed:         req.Seed,
		GridSize:     req.GridSize,
		MaxOrderings: req.MaxOrderings,
		Checkpoint:   req.Checkpoint,
	})
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSONStatus(w, http.StatusCreated, info)
}

func (s *Server) handleQuestions(w http.ResponseWriter, r *http.Request) {
	n := 0
	if raw := r.URL.Query().Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad question count %q", raw))
			return
		}
		n = v
	}
	out, err := s.svc.Questions(r.Context(), r.PathValue("id"), n)
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, out)
}

func (s *Server) handleAnswers(w http.ResponseWriter, r *http.Request) {
	var req answerRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 8<<20)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	answers := make([]service.Answer, len(req.Answers))
	for i, a := range req.Answers {
		answers[i] = service.Answer{I: a.I, J: a.J, Yes: a.Yes}
	}
	out, err := s.svc.Answers(r.Context(), r.PathValue("id"), answers)
	if err != nil {
		// A batch that failed partway reports what was applied before the
		// failure so the client can reconcile.
		var batch *service.BatchError
		if errors.As(err, &batch) {
			writeErrWith(w, statusFor(err), err, map[string]any{"accepted": batch.Accepted})
			return
		}
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, out)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	out, err := s.svc.Result(r.Context(), r.PathValue("id"))
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, out)
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	// Serialize into memory first: Checkpoint holds the session lock, and
	// streaming straight to a slow client would pin that lock (and stall
	// the session's other requests) on TCP backpressure.
	var buf bytes.Buffer
	if err := s.svc.Checkpoint(r.Context(), r.PathValue("id"), &buf); err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(buf.Bytes())
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.svc.Delete(r.Context(), r.PathValue("id")); err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	limit := 0 // service default
	if raw := r.URL.Query().Get("limit"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", raw))
			return
		}
		limit = v
	}
	writeJSON(w, s.svc.List(limit))
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.svc.Stats())
}

// handleMetrics serves the Prometheus text exposition. Rendered into memory
// first so a failed render cannot leave a half-written scrape on the wire.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var buf bytes.Buffer
	if err := s.svc.WriteMetrics(&buf); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(buf.Bytes())
}

// handleHealth is the liveness probe: the process is up and serving, so it
// always answers 200 — the body carries the readiness detail for humans.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.svc.Health())
}

// handleReady is the readiness probe: 200 only when the service can take
// traffic (boot scan done, pool has room, durable writes succeeding); 503
// with the same body otherwise so balancers drain without killing the pod.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	h := s.svc.Health()
	status := http.StatusOK
	if !h.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSONStatus(w, status, h)
}

// ---- plumbing ----

// writeJSONStatus is the one place response status, Content-Type and body
// encoding meet: every JSON response (success or error) goes through it.
func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeJSON(w http.ResponseWriter, v any) {
	writeJSONStatus(w, http.StatusOK, v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeErrWith(w, status, err, nil)
}

func writeErrWith(w http.ResponseWriter, status int, err error, extra map[string]any) {
	body := map[string]any{"error": err.Error()}
	for k, v := range extra {
		body[k] = v
	}
	writeJSONStatus(w, status, body)
}

// statusFor maps the service core's typed errors to HTTP statuses — the one
// place wire status semantics are decided.
func statusFor(err error) int {
	var storage *service.StorageError
	var mismatch *tpo.MismatchError // session.MismatchError is the same type
	switch {
	// A durable-tier failure is a server fault regardless of its cause:
	// check it before the client-error classes its wrapped cause could
	// match (a corrupted snapshot surfaces a digest MismatchError).
	case errors.As(err, &storage):
		return http.StatusInternalServerError
	// Quarantined is permanent-until-operator-action, not retryable: the
	// durable copy was corrupt and has been moved aside. 410 tells clients
	// to stop retrying (unlike the 500 a transient storage fault earns).
	case errors.Is(err, service.ErrQuarantined):
		return http.StatusGone
	case errors.Is(err, service.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, service.ErrRateLimited):
		return http.StatusTooManyRequests
	case errors.Is(err, service.ErrFull), errors.Is(err, service.ErrOverloaded):
		return http.StatusServiceUnavailable
	case errors.Is(err, session.ErrDone), errors.Is(err, session.ErrUnknownQuestion):
		return http.StatusConflict
	case errors.Is(err, service.ErrBadInput),
		errors.Is(err, session.ErrInvalidConfig),
		errors.Is(err, session.ErrInvalidCheckpoint),
		errors.Is(err, session.ErrUnknownAlgorithm),
		errors.As(err, &mismatch),
		errors.Is(err, tpo.ErrInvalidInput),
		errors.Is(err, tpo.ErrTooLarge):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}
