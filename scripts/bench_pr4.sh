#!/usr/bin/env sh
# Serving-throughput benchmark for the inference subsystem, recorded
# into BENCH_PR4.json. No baseline worktree is needed: the sequential
# single-sample baseline — the pre-subsystem serving path (per-request
# Forecaster.Predict with uncached truth and climatology generation) —
# still exists in this tree and is benchmarked in the same binary and
# session, so the ratios are interleaved-fair by construction. Medians
# over ROUNDS rounds.
set -eu
cd "$(dirname "$0")/.."

ROUNDS=${ROUNDS:-3}
BENCH='BenchmarkServeRollout|BenchmarkSequentialForecast$|BenchmarkRolloutStepUnscored$'
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

echo "building test binary..."
go test -c -o "$WORK/infer.test" ./internal/infer/

: >"$WORK/bench.log"
i=1
while [ "$i" -le "$ROUNDS" ]; do
	echo "round $i/$ROUNDS..."
	"$WORK/infer.test" -test.run '^$' -test.bench "$BENCH" -test.benchmem -test.benchtime=1s \
		| grep -E '^Benchmark' >>"$WORK/bench.log" || true
	i=$((i + 1))
done

awk -v log_file="$WORK/bench.log" \
	-v go_version="$(go version | cut -d' ' -f3-4)" -v date="$(date +%Y-%m-%d)" '
function median(arr, n,    i, j, tmp) {
	for (i = 1; i < n; i++)
		for (j = i + 1; j <= n; j++)
			if (arr[j] < arr[i]) { tmp = arr[i]; arr[i] = arr[j]; arr[j] = tmp }
	if (n % 2) return arr[(n + 1) / 2]
	return (arr[n / 2] + arr[n / 2 + 1]) / 2
}
function med(name, unit,    nvals, i, a) {
	nvals = cnt[name unit]
	if (nvals == 0) return ""
	for (i = 1; i <= nvals; i++) a[i] = vals[name unit i] + 0
	return median(a, nvals)
}
BEGIN {
	while ((getline line <log_file) > 0) {
		nf = split(line, f, /[ \t]+/)
		name = f[1]
		sub(/^Benchmark/, "", name); sub(/-[0-9]+$/, "", name)
		if (!(name in seen)) { order[++nnames] = name; seen[name] = 1 }
		for (k = 3; k < nf; k++) {
			if (f[k + 1] == "sample-steps/sec") { cnt[name "tp"]++; vals[name "tp" cnt[name "tp"]] = f[k] }
			if (f[k + 1] == "ns/op") { cnt[name "ns"]++; vals[name "ns" cnt[name "ns"]] = f[k] }
			if (f[k + 1] == "allocs/op") { cnt[name "al"]++; vals[name "al" cnt[name "al"]] = f[k] }
		}
	}
	close(log_file)
	printf "{\n"
	printf "  \"description\": \"PR 4 serving throughput: batched scored rollouts through internal/infer vs the sequential single-sample inference path the repo had before (per-request Forecaster.Predict, no caching). Both run in the same binary and session, medians over interleaved rounds. sample_steps_per_sec = forecast steps served per second; the acceptance criterion is serve_batch8 >= 2x sequential.\",\n"
	printf "  \"command\": \"go test -run ^$ -bench <serving set> -benchmem -benchtime=1s ./internal/infer/ (see scripts/bench_pr4.sh)\",\n"
	printf "  \"environment\": { \"go\": \"%s\", \"date\": \"%s\" },\n", go_version, date
	printf "  \"benchmarks\": {\n"
	for (i = 1; i <= nnames; i++) {
		name = order[i]
		printf "    \"%s\": { \"sample_steps_per_sec\": %.0f, \"ns_per_op\": %.0f, \"allocs_per_op\": %.0f }%s\n",
			name, med(name, "tp"), med(name, "ns"), med(name, "al"), (i < nnames ? "," : "")
	}
	printf "  },\n"
	seq = med("SequentialForecast", "tp")
	b8 = med("ServeRollout/batch=8", "tp")
	b1 = med("ServeRollout/batch=1", "tp")
	if (seq > 0 && b8 > 0) {
		printf "  \"speedup_batch8_vs_sequential\": %.1f,\n", b8 / seq
		printf "  \"speedup_batch1_vs_sequential\": %.1f,\n", b1 / seq
		printf "  \"meets_2x_acceptance\": %s,\n", (b8 >= 2 * seq ? "true" : "false")
	}
	printf "  \"rollout_step_allocs_per_op\": %.0f\n", med("RolloutStepUnscored", "al")
	printf "}\n"
}' >BENCH_PR4.json

echo "wrote BENCH_PR4.json"
