#!/usr/bin/env sh
# Coverage gate for the checkpoint and fault-injection layers: the
# subsystems that guard multi-week training runs must not quietly lose
# their tests. Run via `make cover` (part of `make ci`).
set -eu
cd "$(dirname "$0")/.."

check() {
	pkg=$1
	min=$2
	profile=$(mktemp)
	go test -coverprofile="$profile" "$pkg" >/dev/null
	pct=$(go tool cover -func="$profile" | awk '/^total:/ {gsub(/%/, "", $NF); print $NF}')
	rm -f "$profile"
	ok=$(awk -v p="$pct" -v m="$min" 'BEGIN {print (p >= m) ? 1 : 0}')
	if [ "$ok" != 1 ]; then
		echo "coverage FAIL: $pkg at ${pct}%, required ${min}%"
		exit 1
	fi
	echo "coverage ok: $pkg at ${pct}% (>= ${min}%)"
}

# Checked-in minimum thresholds. Raise them as coverage grows; do not
# lower them without justification in the PR description.
check ./internal/ckpt/ 75
check ./internal/quant/ 85
check ./internal/cluster/ 90
check ./internal/guard/ 85
check ./internal/pp/ 85
check ./internal/infer/ 85
check ./internal/serve/ 85
check ./internal/climate/ 80
check ./internal/tensor/ 85
