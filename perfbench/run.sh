#!/usr/bin/env bash
# Build the serving stack (`fannr`) and the benchmark from source, then run
# one benchmark pass. Run from the repository root:
#
#   bash perfbench/run.sh --workload labels-uniform --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the last line of stdout is the result JSON.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin fannr >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --fannr "$CARGO_TARGET_DIR/release/fannr" "$@"
