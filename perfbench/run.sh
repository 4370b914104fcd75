#!/usr/bin/env bash
# Builds the repository benchmark from the checkout it is started in and
# runs it. Start it from the repository root:
#
#   bash perfbench/run.sh --workload trials-steady --seed 1 --seconds 30 --trace 0
#
# Every build and run artifact stays under .bench_build/ in that root:
# the Go build cache, the compiled binary and the sweepd state the
# service workload writes.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" GOFLAGS= GOWORK=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
