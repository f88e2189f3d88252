#!/usr/bin/env bash
# Wall-clock benchmark suite: emits BENCH_results.json at the repo root.
#
#   scripts/bench.sh                      # full suite (a few minutes)
#   SKV_BENCH_SMOKE=1 scripts/bench.sh    # shrunk sweeps/windows, for CI
#
# Unlike the figure experiments (simulated time, deterministic), these
# numbers are host wall-clock and vary machine to machine; compare only
# before/after on the same box. Raw per-benchmark JSON lines are collected
# via the vendored criterion shim's CRITERION_JSON hook, then assembled and
# validated by the bench_report bin.
set -euo pipefail
cd "$(dirname "$0")/.."

# Absolute: cargo runs bench binaries with CWD at the package root.
RAW="$PWD/target/bench-raw.jsonl"
OUT=${SKV_BENCH_OUT:-BENCH_results.json}
mkdir -p target
rm -f "$RAW"

BENCHES=(
  wallclock_event_loop
  wallclock_resp
  wallclock_channel
  wallclock_fanout
  wallclock_fig10
  wallclock_replmode
  wallclock_shards
  wallclock_hotcache
  wallclock_histcheck
)

for b in "${BENCHES[@]}"; do
  echo "==> bench $b"
  CRITERION_JSON="$RAW" cargo bench -q -p skv-bench --bench "$b"
done

cargo run -q --release -p skv-bench --bin bench_report -- assemble "$RAW" "$OUT"
cargo run -q --release -p skv-bench --bin bench_report -- check "$OUT" 4
