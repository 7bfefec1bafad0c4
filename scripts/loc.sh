#!/bin/sh
# Code lines per workspace crate, then per file of crates/server/src.
#
# A code line is a non-blank line whose first non-space characters are not
# `//` (so doc and plain comments do not count). An item marked
# `#[cfg(test)]` is not counted either: the skip runs from the attribute to
# the brace that closes the item, or to the `;` of an item without a body,
# so in-file unit tests and test-only helpers do not count, and code after
# them does. Only each crate's `src/` tree is counted (integration tests and
# benches are not).
#
# Run from anywhere: `make loc` or `sh scripts/loc.sh`.
set -eu
cd "$(dirname "$0")/.."

# Code lines of the given files, one total.
code_lines() {
    awk 'FNR == 1 { skip = 0 }
         !skip && /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1; depth = 0; body = 0 }
         skip {
             # Braces inside strings and comments are rare enough in this
             # tree to ignore; the attributed item ends where its braces
             # balance, or at the `;` of a one-line item.
             line = $0
             sub(/\/\/.*/, "", line)
             opens = gsub(/\{/, "{", line)
             closes = gsub(/\}/, "}", line)
             if (opens) body = 1
             depth += opens - closes
             if ((body && depth <= 0) || (!body && line ~ /;/)) skip = 0
             next
         }
         !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { n++ }
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
