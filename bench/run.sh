#!/usr/bin/env bash
# Entry point of BENCHMARK.json: builds the benchmark from source inside
# the checkout (Go's caches included, so nothing is written outside it)
# and runs it with the driver's arguments. Run it from anywhere;
# `go run -C bench . [flags]` is the by-hand equivalent.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOFLAGS=
go build -C bench -o "$out/spjoin-bench" .
exec "$out/spjoin-bench" "$@"
