#!/usr/bin/env sh
# PR 8 intra-rank kernel-scaling measurement, recorded into
# BENCH_PR8.json. Drives the env-gated TestBenchPR8 in internal/nn:
# 256^3 matmul and fused attention forward timed at GOMAXPROCS
# 1/2/4/8 (median of interleaved reps), speedups vs the single-worker
# arm. Measured scaling saturates at the host's physical core count.
set -eu
cd "$(dirname "$0")/.."

OUT=${OUT:-$PWD/BENCH_PR8.json}

ORBIT_BENCH_PR8="$OUT" go test ./internal/nn/ -run '^TestBenchPR8$' -count=1 -v -timeout 900s \
	| grep -E 'benchpr8|GOMAXPROCS=|ok ' || true

if [ ! -s "$OUT" ]; then
	echo "bench_pr8: $OUT was not written" >&2
	exit 1
fi
echo "wrote $OUT"
