#!/bin/sh
# Non-test code lines, the PR 13 way (ROADMAP, "measuring stick"): each
# file up to its first `#[cfg(test)]`, minus blank and `//` lines.
#
#   scripts/loc.sh [paths...]     files or directories; default: crates shims src
#
# Directories contribute their `src/**/*.rs` outside any `tests/`
# directory. Prints one count per file, then the total.
set -eu
[ "$#" -gt 0 ] || set -- crates shims src
total=0
for f in $(find "$@" -name '*.rs' | grep -E '(^|/)src/' | grep -v '/tests/' | sort); do
    n=$(awk '/^#\[cfg\(test\)\]/{exit} {print}' "$f" | grep -cvE '^\s*(//|$)' || true)
    printf '%7d %s\n' "$n" "$f"
    total=$((total + n))
done
printf '%7d total\n' "$total"
