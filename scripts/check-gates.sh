#!/bin/sh
# The round's subtraction gates (ROADMAP item 5), held on every PR:
# `nshard-serve` public items, and non-test lines and public items under
# crates/, no higher than the last PR left them (each lowered to the counts
# the PR ends at), all as count-lines.sh counts them.
# Prints the table, then fails naming the gate that broke.
set -eu
cd "$(dirname "$0")/.."

MAX_SERVE_ITEMS=137
MAX_TOTAL_LINES=14828
MAX_TOTAL_ITEMS=870

counts=$(scripts/count-lines.sh)
echo "$counts"
serve_items=$(echo "$counts" | awk '$1 == "serve" { print $3 }')
total_lines=$(echo "$counts" | awk '$1 == "total" { print $2 }')
total_items=$(echo "$counts" | awk '$1 == "total" { print $3 }')

fail=0
if [ "$serve_items" -gt "$MAX_SERVE_ITEMS" ]; then
    echo "error: nshard-serve has $serve_items public items, at most $MAX_SERVE_ITEMS allowed" >&2
    fail=1
fi
if [ "$total_lines" -gt "$MAX_TOTAL_LINES" ]; then
    echo "error: crates/ has $total_lines non-test lines, at most $MAX_TOTAL_LINES allowed" >&2
    fail=1
fi
if [ "$total_items" -gt "$MAX_TOTAL_ITEMS" ]; then
    echo "error: crates/ has $total_items public items, at most $MAX_TOTAL_ITEMS allowed" >&2
    fail=1
fi
exit "$fail"
