#!/usr/bin/env bash
# Full local gate: everything CI would run.
#
#   scripts/check.sh          # skv-analyze + tests + clippy
#
# Fails on the first red step.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> skv-analyze (determinism, event-loop, wire-format & drift rules)"
# JSON report first (CI uploads target/skv-analyze.json as an artifact);
# on failure re-run in text mode so the log shows readable diagnostics.
mkdir -p target
if ! cargo run -q -p skv-analyze -- --format json > target/skv-analyze.json; then
  cargo run -q -p skv-analyze || true
  echo "FAIL: skv-analyze found violations (report: target/skv-analyze.json)"
  exit 1
fi

echo "==> histcheck smoke (bounded linearizability gate, all repl modes)"
# Small recorded bench runs (async/quorum/chain) fed through the
# multi-writer checker. On a violation the failing test writes the full
# event log to target/histcheck_events.json — CI uploads it as the
# counterexample artifact.
if ! cargo test -q --test histcheck_smoke; then
  echo "FAIL: linearizability smoke (event log: target/histcheck_events.json)"
  exit 1
fi

echo "==> cargo test --workspace"
cargo test -q --workspace

echo "==> cargo clippy (deny warnings + curated pedantic subset)"
# The pedantic lints are opt-in one by one: each either mirrors an
# skv-analyze rule workspace-wide (casts, indexing) or keeps the codebase
# idiomatic without fighting the simulator's style.
cargo clippy --workspace --all-targets -- -D warnings \
  -D clippy::cast_possible_truncation \
  -D clippy::string_slice \
  -D clippy::semicolon_if_nothing_returned \
  -D clippy::explicit_iter_loop \
  -D clippy::redundant_closure_for_method_calls \
  -D clippy::uninlined_format_args

echo "==> skvbench smoke (all three workloads, 1 s each)"
# skvbench is a cargo workspace of its own, so the steps above never
# compile it. It exits 0 even on an incorrect run; the verdict is on the
# last line of its output (the JSON result).
cargo build --release --offline -q --manifest-path skvbench/Cargo.toml --target-dir target/skvbench
for workload in set-offload zipf-read-cache quorum-history; do
  result=$(target/skvbench/release/skvbench --workload "$workload" --seed 1 --seconds 1 --trace 0 2>/dev/null | tail -n 1)
  if [[ "$result" != *'"correct": true'* || "$result" != *'"failed": 0,'* ]]; then
    echo "FAIL: skvbench $workload: ${result:-no output}"
    exit 1
  fi
done

echo "==> bench smoke (non-gating)"
# A seconds-scale pass over the wall-clock suite; regressions are judged
# from BENCH_results.json trends, not pass/fail, so failure only warns.
if ! SKV_BENCH_SMOKE=1 SKV_BENCH_OUT=target/BENCH_smoke.json scripts/bench.sh; then
  echo "WARN: bench smoke failed (non-gating)"
fi

echo "OK"
