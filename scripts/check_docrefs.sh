#!/usr/bin/env sh
# check_docrefs.sh — the docs-to-code gate behind `make docs-check`.
#
# Every backticked `pkg.Name` in README.md, docs/ARCHITECTURE.md and
# docs/PERFORMANCE.md, where pkg is a directory under internal/ and
# Name is exported, must be declared in a non-test .go file of that
# package: a func, a method (docs write `core.Backward` for
# Engine.Backward), a type, a var or a const. A Test, Benchmark, Fuzz or
# Example func counts where it is declared, in a _test.go file. For
# `pkg.Type.Member` only Type is checked. Fenced code blocks, paths
# (`./internal/plan`), file names (`plan.go`) and benchmark metric names
# (`train.fwdbwd_ms`, lower case) are not references. A deleted
# declaration then cannot survive in the docs.
#
#   sh scripts/check_docrefs.sh              # check the repository
#   sh scripts/check_docrefs.sh --selftest   # prove the check can fail
#
# The self-test (run by `make docs-check` after the real check) feeds
# the checker a throwaway package and README naming declarations it
# lacks, and asserts the checker rejects each.
set -eu

# refs ROOT — print "file:line pkg name" for every backticked pkg.Name
# whose pkg is a directory under ROOT/internal.
refs() {
    pkgs=$(cd "$1/internal" && for d in */; do printf '%s ' "${d%/}"; done)
    for doc in README.md docs/ARCHITECTURE.md docs/PERFORMANCE.md; do
        [ -e "$1/$doc" ] || continue
        awk -v pkgs="$pkgs" -v doc="$doc" '
            BEGIN { n = split(pkgs, p, " "); for (i = 1; i <= n; i++) known[p[i]] = 1 }
            /^[[:space:]]*```/ { fence = !fence; next }
            fence { next }
            {
                rest = $0
                while (match(rest, /`[^`]+`/)) {
                    span = substr(rest, RSTART + 1, RLENGTH - 2)
                    rest = substr(rest, RSTART + RLENGTH)
                    while (match(span, /[A-Za-z0-9_.\/-]*[A-Za-z_][A-Za-z0-9_]*\.[A-Za-z_][A-Za-z0-9_.]*/)) {
                        tok = substr(span, RSTART, RLENGTH)
                        span = substr(span, RSTART + RLENGTH)
                        if (tok ~ /[\/-]/ || tok ~ /^\./) continue
                        split(tok, part, ".")
                        if (!(part[1] in known) || part[2] !~ /^[A-Z]/) continue
                        print doc ":" FNR, part[1], part[2]
                    }
                }
            }' "$1/$doc"
    done
}

# decls DIR — print every name DIR's non-test .go files declare at
# package level (funcs, methods, types, vars and consts, grouped or not)
# and every Test, Benchmark, Fuzz and Example func of its _test.go files.
decls() {
    for f in "$1"/*.go; do
        [ -e "$f" ] || continue
        case "$f" in
        *_test.go) grep -Eo '^func (Test|Benchmark|Fuzz|Example)[A-Za-z0-9_]*' "$f" | sed 's/^func //' || true ;;
        *) cat "$f" ;;
        esac
    done | awk '
        function names(s,    i, k, w) {
            if (!match(s, /^[A-Za-z_][A-Za-z0-9_]*(, *[A-Za-z_][A-Za-z0-9_]*)*/)) return
            k = split(substr(s, RSTART, RLENGTH), w, /, */)
            for (i = 1; i <= k; i++) print w[i]
        }
        /^(Test|Benchmark|Fuzz|Example)[A-Za-z0-9_]*$/ { print; next }
        /^func [A-Za-z_]/ { s = $0; sub(/^func /, "", s); names(s); next }
        /^func \(/ { s = $0; sub(/^func \([^)]*\) */, "", s); names(s); next }
        /^(type|var|const) \($/ { block = 1; next }
        block && /^\)/ { block = 0; next }
        block && /^\t[A-Za-z_]/ { s = $0; sub(/^\t/, "", s); names(s); next }
        /^(type|var|const) [A-Za-z_]/ { s = $0; sub(/^[a-z]+ /, "", s); names(s) }
    '
}

# check ROOT — print each reference to a name its package does not
# declare; fail if there is one.
check() {
    missing=$(refs "$1" | while read -r at pkg name; do
        decls "$1/internal/$pkg" | grep -qx "$name" ||
            echo "$at: \`$pkg.$name\` is not declared in internal/$pkg"
    done)
    [ -z "$missing" ] && return 0
    echo "$missing" >&2
    return 1
}

if [ "${1:-}" = "--selftest" ]; then
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    mkdir -p "$tmp/internal/demo" "$tmp/docs"
    printf 'package demo\n\nfunc Keep() {}\n\nfunc (*T) Method() {}\n\ntype T struct{ F int }\n\nvar a, B = 1, 2\n\nconst (\n\tC1, C2 = 1, 2\n\tc3     = 3\n)\n' >"$tmp/internal/demo/demo.go"
    printf 'package demo\n\nfunc TestKeep(t *testing.T) {}\n\nfunc Helper() {}\n' >"$tmp/internal/demo/demo_test.go"
    printf 'See `demo.Keep`, `demo.T.F`, `demo.Method`, `demo.B`, `demo.C2` and\n`demo.TestKeep`; not `./internal/demo`, `demo.go`, `demo.gone_ms` or\n`other.Gone`.\n```\ndemo.Gone()\n```\n' >"$tmp/README.md"
    : >"$tmp/docs/ARCHITECTURE.md"
    : >"$tmp/docs/PERFORMANCE.md"
    if ! check "$tmp" 2>/dev/null; then
        echo "check_docrefs selftest FAILED: references to declared names were rejected" >&2
        exit 1
    fi
    for ref in '`demo.Gone`' '`demo.Gone.Member`' '`demo.Helper`' '`demo.C3`' '`x := demo.Gone(1)`'; do
        printf 'One line.\nNames %s.\n' "$ref" >"$tmp/docs/PERFORMANCE.md"
        if check "$tmp" 2>/dev/null; then
            echo "check_docrefs selftest FAILED: $ref names no declaration of internal/demo and was accepted" >&2
            exit 1
        fi
    done
    echo "check_docrefs selftest ok (doc references to undeclared names are detected)"
    exit 0
fi

cd "$(dirname "$0")/.."
if ! check .; then
    echo "docs-check failed: update the doc to name what the code declares" >&2
    exit 1
fi
echo "docs-check ok: every backticked pkg.Name in the docs is declared"
