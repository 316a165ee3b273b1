#!/usr/bin/env bash
# The whole ledger in one command: build, run the five workloads untraced
# (end-to-end metrics) and then traced (per-layer table), print every metric
# by name with its unit, and leave the result files in benchmark/out/.
#
#   benchmark/run.sh [seed] [seconds]
set -euo pipefail
cd "$(dirname "$0")/.."

seed=${1:-1}
seconds=${2:-10}

cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin=${CARGO_TARGET_DIR:-benchmark/target}/release/ibox-benchmark

for trace in 0 1; do
  for workload in replay_packet replay_flow replay_ml ingest_stream batch_ensemble; do
    # The last line is the machine-readable result; the table above it and
    # the result file carry the same numbers.
    "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" | sed '$d'
  done
done
echo "results: benchmark/out/*.json (spans of the traced runs: benchmark/out/*.spans.json)"
