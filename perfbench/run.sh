#!/usr/bin/env bash
# Builds the serve binary and the benchmark from this checkout, then runs the
# benchmark with the given arguments. Run it from the checkout root:
#
#   bash perfbench/run.sh --workload catalog --seed 1 --seconds 30 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
# No VCS stamping: the checkout need not be, or sit in, a git repository.
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false CGO_ENABLED=0
go build -o "$build/crowdtopk" ./cmd/crowdtopk
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" -bin "$build/crowdtopk" -work "$build/perfbench-work" "$@"
