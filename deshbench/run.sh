#!/usr/bin/env bash
# Builds the Desh benchmark from this checkout's sources and runs it.
# Run from the repository root:
#
#   bash deshbench/run.sh --workload replay-durable --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and every file a run writes stay under
# .bench_build/ in the checkout; nothing is fetched.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOSUMDB=off
go -C deshbench build -o "$out/deshbench" .
exec "$out/deshbench" "$@"
