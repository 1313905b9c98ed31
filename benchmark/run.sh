#!/usr/bin/env bash
# The repo benchmark in one command. Builds the benchmark package (which
# builds the crates it measures from source) and runs it from the repo root.
#
#   benchmark/run.sh [--seed N] [--seconds S]   all six workloads, untraced;
#                                               prints every end-to-end metric
#                                               and writes benchmark/out/result.json
#   benchmark/run.sh --trace                    the separate traced run: per-layer
#                                               metrics, benchmark/out/trace-*.json
#   benchmark/run.sh --smoke [--trace]          1 s windows, for a quick check
#   benchmark/run.sh --aa N                     A/A self-check against the bounds
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                               one workload, one JSON result line
#                                               (what BENCHMARK.json's command runs)
set -euo pipefail
cd "$(dirname "$0")/.."
# Build output goes to stderr so that stdout carries results only.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/doduo-benchmark" "$@"
