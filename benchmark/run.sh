#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build at the root of the
# checkout and runs it there with the arguments given. Everything the build
# and the run write stays under .bench_build.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
bin="$build/benchmark"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
# Rebuild only when a source is newer than the binary: even an up-to-date
# `go build` is half a second of CPU right before a measurement.
if [ ! -x "$bin" ] || [ -n "$(find "$root" -path "$build" -prune -o \( -name '*.go' -o -name go.mod \) -newer "$bin" -print -quit)" ]; then
  go build -C "$here" -o "$bin" .
fi
cd "$root"
exec "$bin" -tmp "$build/tmp" "$@"
