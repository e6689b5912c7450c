# Convenience targets for the reproduction. The benchmarks regenerate the
# paper's figures; `bench` records the selection + Fig-1(b) families (the
# residual-sweep hot path), the persist family (WAL append, snapshot
# compaction, cold recovery), the create-path family (session.New at the
# serving workloads' shapes), the answer-path families (a served session's
# SubmitAnswer per strategy; live-engine reconcile-and-sweep vs. full
# rebuild per answer) and the tree-build family (TPO build
# at the serving workloads' shapes, worker scaling, Extend) to
# BENCH_selection.json via cmd/benchreport so before/after numbers live
# next to the code.

BENCHTIME ?= 20x
LOADGEN_DURATION ?= 10s
LOADGEN_LEVELS ?= 1,4,16

.PHONY: test race bench bench-smoke bench-serve

test:
	go build ./... && go vet ./... && go test ./...

race:
	go test -race ./...

# Full recording run: refreshes BENCH_selection.json in place.
bench:
	go run ./cmd/benchreport -benchtime $(BENCHTIME) -out BENCH_selection.json

# CI smoke: one iteration per benchmark, written to a scratch file and
# compared (informationally) against the committed recording so selection
# and persistence regressions are visible in PR logs. At 1x the Fig. 1(b)
# quality metrics average over other worlds than the 20x recording, so
# their differences are printed, not gated; CI gates them in a 20x run.
bench-smoke:
	go run ./cmd/benchreport -benchtime 1x -out /tmp/BENCH_selection.json -compare BENCH_selection.json

# Capacity recording: boot a real serve process, sweep concurrency levels
# with the loadgen harness, and refresh BENCH_serve.json in place (throughput
# + p50/p95/p99 per-route latencies + shed/degraded counts per level).
bench-serve:
	go build -o /tmp/crowdtopk-bench ./cmd/crowdtopk
	/tmp/crowdtopk-bench serve -addr 127.0.0.1:18097 -log-format json >/tmp/crowdtopk-bench-serve.log 2>&1 & \
	SERVE_PID=$$!; \
	trap "kill $$SERVE_PID 2>/dev/null || true" EXIT; \
	for i in $$(seq 1 50); do curl -sf http://127.0.0.1:18097/health >/dev/null && break; sleep 0.2; done; \
	/tmp/crowdtopk-bench loadgen -target http://127.0.0.1:18097 -concurrency $(LOADGEN_LEVELS) -duration $(LOADGEN_DURATION) -out BENCH_serve.json; \
	kill $$SERVE_PID 2>/dev/null || true
