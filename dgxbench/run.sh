#!/usr/bin/env bash
# Builds the benchmark from this checkout and execs it, so the process
# the caller started is the benchmark itself (no wrapper stays behind).
# Everything the build writes stays under .bench_build in the checkout.
#
#   bash dgxbench/run.sh --workload cold-grid --seed 1 --seconds 20 --trace 0
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/dgxbench" && go build -o "$out/dgxbench" .)
exec "$out/dgxbench" "$@"
