#!/bin/sh
# One task->pricing translation (DESIGN.md §15): outside nshard-core a plan
# is priced through `nshard_core::estimate_for_task`, and a fleet is lowered
# to `DeviceScales` by exactly two callers (the search and that function).
#
# Same rule as count-lines.sh: each file is cut at its first `#[cfg(test)]`
# and lines starting with `//` are dropped.
set -eu
cd "$(dirname "$0")/.."

code() {
    find "$@" -name '*.rs' | sort | xargs awk '
        FNR == 1 { cut = 0 }
        /#\[cfg\(test\)\]/ { cut = 1 }
        cut || /^[[:space:]]*\/\// { next }
        { print FILENAME ":" FNR ": " $0 }'
}

if code crates/online/src crates/serve/src crates/learn/src |
    grep -E '\.estimate_plan\(|estimate_plan_batch_scaled\('; then
    echo "error: price plans through nshard_core::estimate_for_task (lines above)" >&2
    exit 1
fi
lowerings=$(code crates/*/src | grep -v '^crates/cost/src/simulator.rs:' | grep -c 'from_pool(' || true)
if [ "$lowerings" -gt 2 ]; then
    echo "error: $lowerings callers of DeviceScales::from_pool, at most 2 allowed" >&2
    exit 1
fi
echo "pricing callers ok ($lowerings fleet lowerings)"
