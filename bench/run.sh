#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument on:
#
#   bash bench/run.sh --workload ball3d-1m --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache and Go's temporary files all live under
# .bench_build/ at the repository root, so a run writes nothing else.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -C "$root/bench" -buildvcs=false -o "$out/parhull-bench" .
exec "$out/parhull-bench" "$@"
