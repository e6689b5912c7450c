# Convenience targets for the reproduction. The benchmarks regenerate the
# paper's figures; `bench` records the selection + Fig-1(b) families (the
# residual-sweep hot path), the persist family (WAL append, snapshot
# compaction, cold recovery), the create-path family (session.New at the
# serving workloads' shapes), the hydrate family (session.Restore of a
# mid-query checkpoint at those shapes), the answer-path families (a
# served session's SubmitAnswer per strategy; live-engine
# reconcile-and-sweep vs. full rebuild per answer), the tree-build family
# (TPO build at the serving workloads' shapes, worker scaling, Extend) and
# the π-cache fill (Prewarm at those shapes) to BENCH_selection.json via
# cmd/benchreport so before/after numbers live next to the code.

BENCHTIME ?= 20x

.PHONY: test race bench bench-smoke

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
