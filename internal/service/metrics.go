package service

import (
	"crowdtopk/internal/obs"
	"crowdtopk/internal/pcache"
	"crowdtopk/internal/selection"
)

// Process-wide event counters: shared by every Service in the process (tests
// build many; a deployment runs one), so they register once at package init.
var (
	mTransitions = obs.Default.CounterVec("crowdtopk_session_transitions_total",
		"Session lifecycle transitions, by state entered.", "state")
	mAnswersAccepted = obs.Default.Counter("crowdtopk_answers_accepted_total",
		"Crowd answers accepted and applied.")
	mContradictions = obs.Default.Counter("crowdtopk_answer_contradictions_total",
		"Accepted answers that contradicted the current belief.")
	mQuestionsServed = obs.Default.Counter("crowdtopk_questions_served_total",
		"Questions delivered to callers.")
	mSessionsCreated = obs.Default.CounterVec("crowdtopk_sessions_created_total",
		"Sessions created, by origin.", "origin") // fresh | restore
	mAdmissionRejected = obs.Default.CounterVec("crowdtopk_admission_rejected_total",
		"Requests rejected at admission, by reason.", "reason") // rate | inflight
	mBreakerTransitions = obs.Default.CounterVec("crowdtopk_breaker_transitions_total",
		"Durable-tier circuit breaker transitions, by state entered.", "state") // closed | open | half-open
)

// registerCollectors points the scrape-time gauge/counter families at this
// Service's store and pool. Re-registration replaces the previous Service's
// collectors (obs func families are replace-on-register), so the last
// constructed Service owns the families — exactly one runs in a deployment.
func (s *Service) registerCollectors() {
	r := obs.Default
	st := s.store

	r.GaugeFunc("crowdtopk_sessions_live",
		"Hydrated in-memory sessions.", func() float64 { return float64(st.len()) })
	r.GaugeFunc("crowdtopk_sessions_known",
		"Known sessions including disk-resident ones.", func() float64 { return float64(st.known()) })
	r.GaugeFunc("crowdtopk_sessions_dirty",
		"Sessions with accepted answers awaiting their durable write.", func() float64 {
			if st.bg == nil {
				return 0
			}
			return float64(st.bg.pending())
		})
	r.RegisterFunc("crowdtopk_sessions_by_state",
		"Live sessions by lifecycle state.", "gauge", []string{"state"}, func() []obs.Sample {
			counts := st.stateCounts()
			out := make([]obs.Sample, 0, len(counts))
			for state, n := range counts {
				out = append(out, obs.Sample{Labels: []string{state}, Value: float64(n)})
			}
			return out
		})
	r.CounterFunc("crowdtopk_evictions_to_disk_total",
		"Idle sessions moved memory to disk.", func() float64 { return float64(st.evictions.Load()) })
	r.CounterFunc("crowdtopk_hydration_hits_total",
		"Lazy loads that found the session on disk.", func() float64 { return float64(st.hydraHits.Load()) })
	r.CounterFunc("crowdtopk_hydration_misses_total",
		"Lazy loads that found nothing anywhere.", func() float64 { return float64(st.hydraMisses.Load()) })
	r.CounterFunc("crowdtopk_persist_errors_total",
		"Failed durable writes (answers stay live).", func() float64 { return float64(st.persistErrors.Load()) })
	r.CounterFunc("crowdtopk_persist_retries_total",
		"Durable-write attempts that were retries of a failure.", func() float64 {
			if st.bg == nil {
				return 0
			}
			return float64(st.bg.retryCount())
		})
	r.CounterFunc("crowdtopk_evictions_refused_total",
		"Evictions refused because acked answers were not yet durable.",
		func() float64 { return float64(st.evictionsRefused.Load()) })
	r.GaugeFunc("crowdtopk_degraded_mode",
		"1 while the durable-tier circuit breaker is non-closed (degraded serving).",
		func() float64 {
			if st.degraded() {
				return 1
			}
			return 0
		})
	r.GaugeFunc("crowdtopk_sessions_quarantined",
		"Known sessions whose durable copies sit in the quarantine area.",
		func() float64 { return float64(st.quarantinedCount()) })
	r.CounterFunc("crowdtopk_quarantines_total",
		"Corrupt sessions moved to the quarantine area by this process.",
		func() float64 { return float64(st.quarantines.Load()) })

	pool := s.pool
	r.GaugeFunc("crowdtopk_pool_workers_in_use",
		"Worker-pool slots currently granted.", func() float64 { return float64(pool.InUse()) })
	r.GaugeFunc("crowdtopk_pool_workers_cap",
		"Worker-pool slot capacity.", func() float64 { return float64(pool.Cap()) })
	r.GaugeFunc("crowdtopk_pool_saturation",
		"Worker-pool saturation in [0,1]: in_use / cap.", func() float64 {
			return float64(pool.InUse()) / float64(pool.Cap())
		})

	gate := s.gate
	r.GaugeFunc("crowdtopk_admission_inflight",
		"Requests currently admitted and executing.", func() float64 {
			if gate == nil {
				return 0
			}
			return float64(gate.inflightNow())
		})

	// π-cache: hits/misses restart only at an explicit pcache.Reset (the
	// bounded cache retires old entries by generation and never resets
	// itself), so the totals are "since last reset" — the resets counter
	// disambiguates.
	r.CounterFunc("crowdtopk_pcache_hits_total",
		"Pairwise-probability cache hits since the last cache reset.",
		func() float64 { return float64(pcache.Stats().Hits) })
	r.CounterFunc("crowdtopk_pcache_misses_total",
		"Pairwise-probability cache misses since the last cache reset.",
		func() float64 { return float64(pcache.Stats().Misses) })
	r.CounterFunc("crowdtopk_pcache_resets_total",
		"Explicit pairwise-probability cache resets.",
		func() float64 { return float64(pcache.Stats().Resets) })
	r.GaugeFunc("crowdtopk_pcache_entries",
		"Pairwise-probability cache resident entries.",
		func() float64 { return float64(pcache.Stats().Entries) })
	r.GaugeFunc("crowdtopk_pcache_hit_rate",
		"Pairwise-probability cache lifetime hit rate in [0,1].",
		func() float64 { return pcache.Stats().HitRate })

	r.RegisterFunc("crowdtopk_live_engine_events_total",
		"Incremental selection-engine events.", "counter", []string{"event"}, func() []obs.Sample {
			c := selection.LiveEngineStats()
			return []obs.Sample{
				{Labels: []string{"reuse"}, Value: float64(c.Reuses)},
				{Labels: []string{"rebuild"}, Value: float64(c.Rebuilds)},
				{Labels: []string{"compaction"}, Value: float64(c.Compactions)},
				{Labels: []string{"invalidation"}, Value: float64(c.Invalidations)},
			}
		})

	if disk := st.disk; disk != nil {
		r.RegisterFunc("crowdtopk_persist_activity_total",
			"Durable-store activity.", "counter", []string{"op"}, func() []obs.Sample {
				c := disk.Counters()
				return []obs.Sample{
					{Labels: []string{"snapshot"}, Value: float64(c.Snapshots)},
					{Labels: []string{"wal_append"}, Value: float64(c.WALAppends)},
					{Labels: []string{"replay"}, Value: float64(c.Replays)},
					{Labels: []string{"recover"}, Value: float64(c.RecoveredSessions)},
					{Labels: []string{"fsync"}, Value: float64(c.Fsyncs)},
					{Labels: []string{"torn_tail"}, Value: float64(c.TornTails)},
					{Labels: []string{"quarantine"}, Value: float64(c.Quarantines)},
				}
			})
	}
}
