#!/usr/bin/env sh
# check_flags.sh — the README flag-table gate behind `make docs-check`.
#
# Every backticked -flag in a | `orbit-…` | row of README.md's
# command-line table must be defined by that binary: some non-test
# cmd/<name>/*.go calls flag.X("flag", …) or flag.XVar(&v, "flag", …).
# A flag deleted from a binary then cannot survive in the README.
#
#   sh scripts/check_flags.sh              # check the repository
#   sh scripts/check_flags.sh --selftest   # prove the check can fail
#
# The self-test (run by `make docs-check` after the real check) feeds
# the checker a throwaway README row naming a flag its binary lacks and
# asserts the checker rejects it.
set -eu

# readme_flags ROOT — print "name flag" for every -flag in a binary's
# README row.
readme_flags() {
    awk '
        /^\| `orbit-[a-z-]+` \|/ {
            name = $0; sub(/^\| `/, "", name); sub(/`.*/, "", name)
            rest = $0
            while (match(rest, /`[^`]*`/)) {
                span = substr(rest, RSTART + 1, RLENGTH - 2)
                rest = substr(rest, RSTART + RLENGTH)
                n = split(span, w, /[[:space:]]+/)
                for (i = 1; i <= n; i++)
                    if (w[i] ~ /^-[a-z][a-z0-9-]*$/) print name, substr(w[i], 2)
            }
        }' "$1/README.md"
}

# check ROOT — print each README flag its binary does not define; fail
# if there is one.
check() {
    missing=$(readme_flags "$1" | while read -r name flag; do
        found=no
        for f in "$1/cmd/$name"/*.go; do
            case "$f" in *_test.go) continue ;; esac
            if [ -e "$f" ] && grep -Eq "flag\.[A-Za-z0-9]+\((&[^,]+, )?\"$flag\"," "$f"; then
                found=yes
                break
            fi
        done
        [ "$found" = yes ] || echo "README lists $name -$flag, which cmd/$name does not define"
    done)
    [ -z "$missing" ] && return 0
    echo "$missing" >&2
    return 1
}

if [ "${1:-}" = "--selftest" ]; then
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    mkdir -p "$tmp/cmd/orbit-demo"
    printf 'package main\n\nimport "flag"\n\nvar n = flag.Int("steps", 1, "")\n\nfunc main() { var s string; flag.StringVar(&s, "ckpt", "", "") }\n' >"$tmp/cmd/orbit-demo/main.go"
    printf 'package main\n\nimport "flag"\n\nvar _ = flag.Bool("test-only", false, "")\n' >"$tmp/cmd/orbit-demo/main_test.go"
    printf '| `orbit-demo` | demo | `-steps`, `-ckpt path` |\n' >"$tmp/README.md"
    if ! check "$tmp" 2>/dev/null; then
        echo "check_flags selftest FAILED: a row of defined flags was rejected" >&2
        exit 1
    fi
    for row in '`-steps`, `-gone`' '`-steps -gone`' '`-test-only`'; do
        printf '| `orbit-demo` | demo | %s |\n' "$row" >"$tmp/README.md"
        if check "$tmp" 2>/dev/null; then
            echo "check_flags selftest FAILED: README row $row names a flag orbit-demo lacks and was accepted" >&2
            exit 1
        fi
    done
    echo "check_flags selftest ok (README flags a binary lacks are detected)"
    exit 0
fi

cd "$(dirname "$0")/.."
if ! check .; then
    echo "docs-check failed: drop the flag from README.md's command table, or define it" >&2
    exit 1
fi
echo "docs-check ok: every README flag is defined by its binary"
