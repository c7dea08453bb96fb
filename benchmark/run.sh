#!/usr/bin/env bash
# Build the benchmark once, check that every workload verifies, then run the
# whole suite: both passes of all five workloads, every metric printed by
# name, results in benchmark/out/results.json and one Chrome trace per
# workload next to it.  Run from anywhere; extra arguments (--seed N,
# --seconds S) go to `run all`.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/dcgn_benchmark"
"$bin" check
"$bin" run all "$@"
