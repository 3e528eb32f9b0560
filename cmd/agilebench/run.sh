#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it with
# the given arguments. Run it from the repository root:
#
#   bash cmd/agilebench/run.sh -workload agile_cold -seed 1 -seconds 25 -trace 0
#
# Everything the build writes (binary, Go build cache, temporary files)
# stays under .bench_build in the current directory.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off

go -C "$here" build -o "$out/agilebench" .
exec "$out/agilebench" "$@"
