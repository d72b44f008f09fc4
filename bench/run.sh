#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# into .bench_build/ at the checkout root (build cache included, so
# nothing is written outside the checkout) and runs it from there.
# The build is a no-op when the binary is current, so it is not part
# of setup_s.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTOOLCHAIN=local GOPROXY=off
go build -C bench -o "$build/orbit-bench" .
exec "$build/orbit-bench" "$@"
