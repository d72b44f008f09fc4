#!/usr/bin/env sh
# CI entry point: build, an arm64 cross-build of the portable kernel
# file set, the bench/ module's vet + self-tests (it is outside
# `./...`), vet, gofmt check, staticcheck (when the
# binary is installed — the hosted workflow installs it), full tests,
# a race-detector pass over the communication / parallelism / elastic-
# training / serving layers (including the serving chaos tests), the
# -count=20 -cpu 1,2 stress pass over the serving path, a
# one-iteration benchmark smoke over the attention and block
# forward+backward hot paths, and the
# coverage gate for the checkpoint, cluster fault-injection, and
# inference/serving packages.
set -eu
cd "$(dirname "$0")/.."
make ci
