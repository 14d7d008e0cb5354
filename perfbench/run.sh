#!/usr/bin/env bash
# Builds perfbench from the sources in this checkout and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload ingest-paper --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, binary, traces) stays in
# .bench_build under the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
