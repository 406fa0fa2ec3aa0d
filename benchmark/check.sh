#!/usr/bin/env bash
# Compiles the benchmark package, runs its unit tests, and exercises every
# workload at about a twentieth of its op count with the output checks on
# (no bounds applied): untraced, then traced. Under a minute after the build.
# Run from anywhere; everything it writes lands in the cargo target directory
# and in benchmark/out/.
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml
cargo test --release --offline --manifest-path "$manifest"
cargo run --release --offline --manifest-path "$manifest" -- --smoke
cargo run --release --offline --manifest-path "$manifest" -- --smoke --trace
echo "benchmark/check.sh: ok"
