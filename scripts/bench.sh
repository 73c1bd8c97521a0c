#!/usr/bin/env bash
# Records a new benchmark snapshot of the exploration core — BENCH_<n>.json
# at the next free index, stamped with the current git revision — from the
# `state_space` and `batch_throughput` criterion suites. Run from anywhere;
# writes to the repository root.
#
#   scripts/bench.sh
#
# The snapshot records every report line of both suites plus exact state
# counts, peak frontier and wall time of the headline workloads, and
# daemon warm-vs-cold (see crates/bench/examples/bench_snapshot.rs). Numbered
# snapshots accumulate as the performance trajectory of the repo: BENCH_1
# is the baseline CI gates against, later indices track where each
# optimisation landed. CI replays the state_space suite and fails when a
# headline throughput drops more than 30% below BENCH_1.json.
set -euo pipefail
cd "$(dirname "$0")/.."

n=1
while [ -e "BENCH_${n}.json" ]; do
    n=$((n + 1))
done
out="BENCH_${n}.json"
sha="$(git rev-parse HEAD)"

capture_dir="$(mktemp -d)"
trap 'rm -rf "$capture_dir"' EXIT

cargo bench -p bench --bench state_space | tee "$capture_dir/state_space.txt"
cargo bench -p bench --bench batch_throughput | tee "$capture_dir/batch_throughput.txt"

cargo run --release -p bench --example bench_snapshot -- write \
    --sha "$sha" \
    "$capture_dir/state_space.txt" \
    "$capture_dir/batch_throughput.txt" \
    "$out"
