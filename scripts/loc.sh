#!/bin/sh
# Code lines per workspace crate, then per file of crates/server/src.
#
# A code line is a non-blank line whose first non-space characters are not
# `//` (so doc and plain comments do not count); counting stops at a file's
# first `#[cfg(test)]`, so in-file unit tests do not count either. Only each
# crate's `src/` tree is counted (integration tests and benches are not).
#
# Run from anywhere: `make loc` or `sh scripts/loc.sh`.
set -eu
cd "$(dirname "$0")/.."

# Code lines of the given files, one total.
code_lines() {
    awk 'FNR == 1 { on = 1 }
         /^[[:space:]]*#\[cfg\(test\)\]/ { on = 0 }
         on && !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { n++ }
         END { print n + 0 }' "$@"
}

rs_files() {
    find "$1" -name '*.rs' | sort
}

echo "code lines per crate (src/ only)"
total=0
for src in src crates/*/src crates/shims/*/src; do
    [ -d "$src" ] || continue
    # shellcheck disable=SC2046
    n=$(code_lines $(rs_files "$src"))
    total=$((total + n))
    printf '%7d  %s\n' "$n" "${src%/src}"
done
printf '%7d  total\n' "$total"

echo
echo "code lines per file of crates/server/src"
for f in $(rs_files crates/server/src); do
    printf '%7d  %s\n' "$(code_lines "$f")" "${f#crates/server/src/}"
done
# shellcheck disable=SC2046
printf '%7d  total\n' "$(code_lines $(rs_files crates/server/src))"
