#!/usr/bin/env sh
# Line counts per package and in total: non-test .go, assembly (.s and
# the .h two of them include) and _test.go lines of every directory
# outside bench/ (the benchmark is its own module and is frozen between
# benchmark PRs). The table re-anchors and simplicity PRs quote before
# -> after in CHANGES.md.
set -eu
cd "$(dirname "$0")/.."

find . -path ./bench -prune -o -path './.*' -prune -o -type f \( -name '*.go' -o -name '*.s' -o -name '*.h' \) -print |
	xargs wc -l | awk '
	$2 == "total" { next }
	{
		dir = $2; sub(/\/[^\/]*$/, "", dir); sub(/^\.\/?/, "", dir)
		if (dir == "") dir = "."
		kind = ($2 ~ /_test\.go$/) ? "test" : ($2 ~ /\.[sh]$/) ? "asm" : "go"
		n[dir, kind] += $1; tot[kind] += $1; seen[dir] = 1
	}
	END {
		fmt = "%-28s %8s %6s %8s\n"
		printf fmt, "package", "go", "s", "test.go"
		cmd = "sort"
		for (d in seen) printf fmt, d, n[d, "go"] + 0, n[d, "asm"] + 0, n[d, "test"] + 0 | cmd
		close(cmd)
		printf fmt, "total", tot["go"] + 0, tot["asm"] + 0, tot["test"] + 0
	}'
