#!/usr/bin/env bash
# Builds the perf benchmark from the sources in this checkout and runs it
# with the given flags, from any working directory. Build outputs, the Go
# build cache and temporary files all stay under .bench_build/ at the
# repository root; results and traces land in perf/out/.
#
#   bash perf/run.sh --workload mix16-balanced --seed 42 --seconds 20 --trace 0
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
export GIT_CEILING_DIRECTORIES="$(dirname "$root")"
cd "$root/perf"
go build -o "$build/perf" .
exec "$build/perf" "$@"
