#!/bin/sh
# Non-test, non-comment lines and public items under crates/ — the two
# figures every PR reports (ROADMAP, ground rules).
#
# Rule: every .rs file under crates/ but the test-only module files listed
# in TEST_ONLY, each cut at its first line that starts with `#[cfg(test)]`
# (so a test module or test-only item goes last in its file); blank lines
# and lines starting with `//` (so `///` and `//!` too) are dropped. A
# public item is a remaining line starting with
# `pub fn|struct|enum|const|trait|type|mod|static|use`.
#
# Prints one row per crate and a `total` row.
set -eu
cd "$(dirname "$0")/.."

# Module files their parent declares behind `#[cfg(test)]`, one per line;
# check-pricing-callers.sh keeps the same list.
TEST_ONLY='crates/nn/src/reference.rs'

printf '%-10s %7s %9s\n' crate lines pub_items
for dir in crates/*/; do
    find "$dir" -name '*.rs' | grep -vxF "$TEST_ONLY" | sort | xargs awk -v crate="$(basename "$dir")" '
        FNR == 1 { cut = 0 }
        /^#\[cfg\(test\)\]/ { cut = 1 }
        cut { next }
        /^[[:space:]]*$/ { next }
        /^[[:space:]]*\/\// { next }
        { lines++ }
        /^[[:space:]]*pub (fn|struct|enum|const|trait|type|mod|static|use)[[:space:]]/ { items++ }
        END { printf "%-10s %7d %9d\n", crate, lines, items }'
done | awk '
    { print; lines += $2; items += $3 }
    END { printf "%-10s %7d %9d\n", "total", lines, items }'
