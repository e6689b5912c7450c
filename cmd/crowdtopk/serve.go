package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"crowdtopk/internal/obs"
	"crowdtopk/internal/persist"
	"crowdtopk/internal/server"
)

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "process-wide worker budget shared by all sessions' tree builds (0 = all CPUs)")
	ttl := fs.Duration("ttl", server.DefaultTTL, "evict sessions idle longer than this (0 = never); with -data-dir eviction moves them to disk instead of dropping them")
	maxSessions := fs.Int("max-sessions", 0, "maximum live in-memory sessions, creates beyond it get 503 (0 = unbounded)")
	dataDir := fs.String("data-dir", "", "durable session store directory; empty serves memory-only (sessions die with the process)")
	fsync := fs.String("fsync", string(persist.SyncAlways), "wal fsync policy with -data-dir: always (fsync every wal append; answers are acked before the background persister writes them) or none (page cache + flush on shutdown)")
	snapshotEvery := fs.Int("snapshot-every", persist.DefaultSnapshotEvery, "with -data-dir, compact a session's wal into a fresh snapshot after this many appended answers")
	logFormat := fs.String("log-format", "text", "structured log format on stderr: text or json")
	auditPath := fs.String("audit-log", "", "append-only NDJSON audit log of accepted answer batches; empty disables auditing")
	rateLimit := fs.Float64("rate-limit", 0, "per-client sustained requests per second, excess gets 429 with Retry-After (0 = unlimited)")
	rateBurst := fs.Int("rate-burst", 0, "per-client burst on top of -rate-limit (0 = one second's worth, at least 1)")
	maxInflight := fs.Int("max-inflight", 0, "cap on concurrently executing requests, excess gets 503 (0 = uncapped)")
	shutdownTimeout := fs.Duration("shutdown-timeout", 0, "bound on the final durable drain at shutdown; dirty sessions past it are abandoned with a logged list (0 = 10s default)")
	faultSpec := fs.String("fault-spec", "", "TESTING ONLY: inject durable-store faults, e.g. 'put.err.rate=0.2,latency=5ms,seed=1' (requires -data-dir)")
	traceSample := fs.Float64("trace-sample", 1, "head-sampling rate for request tracing in [0,1]; 0 disables tracing entirely (and /debug/traces answers 404)")
	slowMS := fs.Duration("slow-ms", 500*time.Millisecond, "requests slower than this are always traced and logged with their span breakdown")
	traceBuffer := fs.Int("trace-buffer", obs.DefaultTraceBuffer, "completed traces retained for /debug/traces")
	pprofFlag := fs.Bool("pprof", false, "mount the Go profiler at /debug/pprof (refused on a non-loopback -addr unless -pprof-public)")
	pprofPublic := fs.Bool("pprof-public", false, "allow -pprof on a non-loopback listener (exposes heap contents and CPU profiles to the network)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *logFormat {
	case "text", "json":
	default:
		return fmt.Errorf("serve: unknown -log-format %q (want text or json)", *logFormat)
	}
	log := obs.NewLogger(os.Stderr, *logFormat)
	if *traceSample < 0 || *traceSample > 1 {
		return fmt.Errorf("serve: -trace-sample %g outside [0, 1]", *traceSample)
	}
	if *pprofFlag && !*pprofPublic && !loopbackAddr(*addr) {
		return fmt.Errorf("serve: refusing -pprof on non-loopback address %q (add -pprof-public to override)", *addr)
	}

	cfg := server.Config{
		Workers:         *workers,
		TTL:             *ttl,
		MaxSessions:     *maxSessions,
		Logger:          log,
		RateLimit:       *rateLimit,
		RateBurst:       *rateBurst,
		MaxInflight:     *maxInflight,
		ShutdownTimeout: *shutdownTimeout,
		EnablePprof:     *pprofFlag,
		Tracer: obs.NewTracer(obs.TracerConfig{
			SampleRate:    *traceSample,
			SlowThreshold: *slowMS,
			BufferSize:    *traceBuffer,
		}),
	}
	if *faultSpec != "" && *dataDir == "" {
		return errors.New("serve: -fault-spec requires -data-dir")
	}
	if *dataDir != "" {
		policy, err := persist.ParseSyncPolicy(*fsync)
		if err != nil {
			return err
		}
		store, err := persist.NewFile(persist.FileOptions{
			Dir:           *dataDir,
			SnapshotEvery: *snapshotEvery,
			Sync:          policy,
		})
		if err != nil {
			return err
		}
		cfg.Persist = store
		if *faultSpec != "" {
			spec, err := persist.ParseFaultSpec(*faultSpec)
			if err != nil {
				return err
			}
			cfg.Persist = persist.NewFaultStore(store, spec)
			log.Warn("crowdtopk serve: durable-store fault injection ACTIVE — testing only", "fault_spec", *faultSpec)
		}
	}
	if *auditPath != "" {
		f, err := os.OpenFile(*auditPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("serve: opening audit log: %w", err)
		}
		defer f.Close()
		cfg.Audit = obs.NewAuditLog(obs.AuditConfig{W: f})
	}
	srv, err := server.New(cfg) // recovers all persisted sessions on boot
	if err != nil {
		return err
	}
	defer srv.Close()
	log.Info("crowdtopk serve: listening",
		"addr", *addr,
		"workers", *workers,
		"ttl", ttl.String(),
		"data_dir", *dataDir,
		"fsync", *fsync,
		"audit_log", *auditPath,
		"rate_limit", *rateLimit,
		"max_inflight", *maxInflight,
		"trace_sample", *traceSample,
		"slow_ms", slowMS.String(),
		"pprof", *pprofFlag,
	)

	// Header and idle timeouts so slow clients cannot pin connections
	// forever (slowloris); read/write timeouts stay unset because large
	// checkpoint transfers on slow links are legitimate.
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	// Graceful shutdown: on SIGINT/SIGTERM stop accepting, drain in-flight
	// requests under a deadline, then flush every dirty session to the
	// durable store (srv.Close) so nothing acked is lost.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
		stop() // a second signal kills hot instead of waiting for the drain
		log.Info("crowdtopk serve: shutting down", "drain_timeout", "15s")
		sctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			log.Warn("crowdtopk serve: shutdown", "err", err)
		}
		srv.Close() // flush dirty sessions to disk, drain the audit log, close the store
		return nil
	}
}

// loopbackAddr reports whether the listen address binds only loopback. An
// empty host (":8080") binds every interface, so it is not loopback.
func loopbackAddr(addr string) bool {
	host, _, err := net.SplitHostPort(addr)
	if err != nil || host == "" {
		return false
	}
	if host == "localhost" {
		return true
	}
	ip := net.ParseIP(host)
	return ip != nil && ip.IsLoopback()
}
