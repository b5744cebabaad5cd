#!/usr/bin/env bash
# Runs a bench binary and validates the schema of the BENCH_*.json it
# emits, so tier-1 ctest runs keep the perf/failure trajectory
# machine-readable (and loudly fail if a refactor breaks a bench).
#
# Usage:
#   check_bench.sh <micro_sim-binary> [output.json]
#   check_bench.sh --failure <failure_sweep-binary> [output.json]
#   check_bench.sh --sweep <run_all-binary> [output.json]
#   check_bench.sh --chain <chain_sweep-binary> [output.json]
#   check_bench.sh --cluster <cluster_sweep-binary> [output.json]
#   check_bench.sh --fuzz <fuzz_corpus-binary> [output.json]
#   check_bench.sh --dedup <dedup_sweep-binary> [output.json]
#   check_bench.sh --precopy <precopy_sweep-binary> [output.json]
#   check_bench.sh --checkpoint <checkpoint_sweep-binary> [output.json]
set -euo pipefail

MODE=sim
if [ "${1:-}" = "--failure" ]; then
  MODE=failure
  shift
elif [ "${1:-}" = "--sweep" ]; then
  MODE=sweep
  shift
elif [ "${1:-}" = "--chain" ]; then
  MODE=chain
  shift
elif [ "${1:-}" = "--cluster" ]; then
  MODE=cluster
  shift
elif [ "${1:-}" = "--fuzz" ]; then
  MODE=fuzz
  shift
elif [ "${1:-}" = "--dedup" ]; then
  MODE=dedup
  shift
elif [ "${1:-}" = "--precopy" ]; then
  MODE=precopy
  shift
elif [ "${1:-}" = "--checkpoint" ]; then
  MODE=checkpoint
  shift
fi

BIN=${1:?usage: check_bench.sh [--failure] <bench binary> [out.json]}

status=0
if [ "$MODE" = "sim" ]; then
  OUT=${2:-BENCH_sim.json}
  # Modest event budget: this is a schema/regression tripwire in CI, not the
  # full measurement run (invoke micro_sim directly for that).
  "$BIN" --events 100000 --reps 2 --out "$OUT"
  KEYS="bench schema_version events inline_events_per_sec inline_ns_per_event \
        copy_trial_zero_copy_bytes_copied sweep_trials sweep_zero_copy_seconds \
        sweep_zero_copy_bytes_copied"

  # The binary itself asserts both byte bounds; re-assert them and the grid
  # size from the emitted JSON.
  if ! grep -q '"sweep_trials": 77' "$OUT"; then
    echo "check_bench: data-plane sweep did not cover the 77-trial grid" >&2
    status=1
  fi
  TRIAL_COPIED=$(grep -o '^  "copy_trial_zero_copy_bytes_copied": [0-9]*' "$OUT" | awk '{print $2}' || true)
  if [ -z "$TRIAL_COPIED" ] || [ "$TRIAL_COPIED" -gt 57344 ]; then
    echo "check_bench: PM-Mid pure-copy bytes copied '$TRIAL_COPIED' above 57344 in $OUT" >&2
    status=1
  fi
  SWEEP_COPIED=$(grep -o '^  "sweep_zero_copy_bytes_copied": [0-9]*' "$OUT" | awk '{print $2}' || true)
  if [ -z "$SWEEP_COPIED" ] || [ "$SWEEP_COPIED" -gt 3108864 ]; then
    echo "check_bench: 77-trial sweep bytes copied '$SWEEP_COPIED' above 3108864 in $OUT" >&2
    status=1
  fi
elif [ "$MODE" = "sweep" ]; then
  OUT=${2:-BENCH_sweep.json}
  # Runs the 77-trial grid in memory, prints every paper table and figure
  # (their ACCENT_CHECKs abort on a mismatch), folds the grid into the
  # metrics registry and emits the summary.
  TABLES=$("$BIN" --out "$OUT")
  for heading in "Table 4-1:" "Table 4-2:" "Table 4-3:" "Table 4-4:" "Table 4-5:" \
                 "Figure 4-1:" "Figure 4-2:" "Figure 4-3:" "Figure 4-4:" "Figure 4-5:" \
                 "Section 4.5 Summary:"; do
    if ! grep -qF "=== $heading" <<< "$TABLES"; then
      echo "check_bench: run_all did not print the '$heading' heading" >&2
      status=1
    fi
  done
  KEYS="bench schema_version seed trial_count workloads metrics trials \
        counters histograms downtime_seconds rimas_transfer_seconds \
        faults.iou_pulls bytes.total messages.total \
        rs_calibrated rs_zero_scan_per_mb_us"

  if ! grep -q '"bench": "sweep"' "$OUT"; then
    echo "check_bench: $OUT is not a sweep summary" >&2
    status=1
  fi
  if grep -q '"trial_count": 0' "$OUT"; then
    echo "check_bench: sweep summary carries no trials" >&2
    status=1
  fi
elif [ "$MODE" = "chain" ]; then
  OUT=${2:-BENCH_chain.json}
  # The A -> B -> C grid (7 workloads x 11 strategy/prefetch cells) plus the
  # B-crash-after-collapse trials. The binary exits non-zero if any
  # post-collapse request touched the evacuated intermediary, any trial hung
  # or finished corrupted, or the crash trial lost the process.
  "$BIN" --out "$OUT"
  KEYS="bench schema_version trial_count collapses \
        b_requests_after_collapse_total b_forwards_after_collapse_total \
        b_objects_after_collapse_total integrity_failures hung \
        crash_trial_count b_crash_survived trials crash_trials"

  # Belt and braces: re-assert the evacuation + survival invariants.
  if ! grep -q '"b_requests_after_collapse_total": 0' "$OUT"; then
    echo "check_bench: post-collapse requests hit the intermediary in $OUT" >&2
    status=1
  fi
  if ! grep -q '"b_forwards_after_collapse_total": 0' "$OUT"; then
    echo "check_bench: post-collapse requests were forwarded through the intermediary in $OUT" >&2
    status=1
  fi
  if ! grep -q '"integrity_failures": 0' "$OUT"; then
    echo "check_bench: chain sweep reports corrupted completions in $OUT" >&2
    status=1
  fi
  if ! grep -q '"hung": 0' "$OUT"; then
    echo "check_bench: chain sweep reports hung trials in $OUT" >&2
    status=1
  fi
  if ! grep -q '"b_crash_survived": true' "$OUT"; then
    echo "check_bench: process did not survive the intermediary crash in $OUT" >&2
    status=1
  fi
elif [ "$MODE" = "cluster" ]; then
  OUT=${2:-BENCH_cluster.json}
  # The 480-host churn trial at 1/2/8 shards (byte-compared, best-of-reps
  # walls) plus the 16-point balancer policy grid. The binary exits non-zero
  # if any trial hung, any census failed to balance, the shard counts
  # disagreed on results, or 8 shards failed to beat 1.
  "$BIN" --out "$OUT"
  KEYS="bench schema_version seed reps hosts processes_arrived trial_count \
        hung integrity_failures identical_across_shards \
        wall_seconds_shards_1 wall_seconds_shards_2 wall_seconds_shards_8 \
        speedup_shards_2 speedup_shards_8 big_trial policy_sweep \
        steady_migrations_per_sec queueing_p99_us downtime_p99_us"

  # Belt and braces: re-assert the headline invariants from the JSON.
  if ! grep -q '"hung": 0' "$OUT"; then
    echo "check_bench: cluster sweep reports hung trials in $OUT" >&2
    status=1
  fi
  if ! grep -q '"integrity_failures": 0' "$OUT"; then
    echo "check_bench: cluster sweep reports census failures in $OUT" >&2
    status=1
  fi
  if ! grep -q '"identical_across_shards": true' "$OUT"; then
    echo "check_bench: shard counts disagree on trial results in $OUT" >&2
    status=1
  fi
  SPEEDUP=$(grep -o '"speedup_shards_8": [0-9.eE+-]*' "$OUT" | head -n1 | awk '{print $2}')
  if [ -z "$SPEEDUP" ] || ! awk -v s="$SPEEDUP" 'BEGIN { exit !(s > 1.0) }'; then
    echo "check_bench: 8-shard speedup '$SPEEDUP' is not > 1 in $OUT" >&2
    status=1
  fi
elif [ "$MODE" = "fuzz" ]; then
  OUT=${2:-BENCH_fuzz.json}
  # The seeded adversarial corpus (ACCENT_FUZZ_SEEDS scenarios, default 64):
  # random heterogeneous topology x workload x fault plan x strategy x
  # optional re-migration, checked against the standing oracles. The binary
  # exits non-zero on any oracle failure; every failing scenario prints its
  # seed and a migrate_sim --replay-seed line.
  "$BIN" --out "$OUT"
  KEYS="bench schema_version first_seed scenario_count completed aborted \
        terminal_faults hung integrity_failures backer_imbalances \
        shard_divergences cluster_census_failures cluster_hangs \
        diskless_backing_anchors payload_leak remigrations crash_scenarios \
        cached_scenarios dedup_failures checkpoint_scenarios \
        restores_completed checkpoint_failures failures scenarios"

  # Belt and braces: re-assert the headline oracles from the emitted JSON.
  if ! grep -q '"integrity_failures": 0' "$OUT"; then
    echo "check_bench: fuzz corpus reports corrupted completions in $OUT" >&2
    status=1
  fi
  if ! grep -q '"hung": 0' "$OUT"; then
    echo "check_bench: fuzz corpus reports hung scenarios in $OUT" >&2
    status=1
  fi
  if ! grep -q '"shard_divergences": 0' "$OUT"; then
    echo "check_bench: fuzz corpus reports shard-count divergence in $OUT" >&2
    status=1
  fi
  if ! grep -q '"dedup_failures": 0' "$OUT"; then
    echo "check_bench: fuzz corpus reports dedup identity violations in $OUT" >&2
    status=1
  fi
  if ! grep -q '"checkpoint_failures": 0' "$OUT"; then
    echo "check_bench: fuzz corpus reports checkpoint-plane violations in $OUT" >&2
    status=1
  fi
  if ! grep -q '"failures": 0' "$OUT"; then
    echo "check_bench: fuzz corpus reports oracle failures in $OUT" >&2
    status=1
  fi
elif [ "$MODE" = "dedup" ]; then
  OUT=${2:-BENCH_dedup.json}
  # The same Table 4-1 program migrated N times across the calibrated fleet,
  # content cache on vs off. The binary exits non-zero if the origin served
  # more than half of the faulted pages as payload, if the cached run failed
  # to move strictly fewer bytes than the baseline, if the cache-off run
  # touched the dedup plane at all, or on any integrity failure.
  "$BIN" --out "$OUT"
  KEYS="bench schema_version workload seed repeats hosts \
        origin_offload_ratio wire_bytes_cached wire_bytes_baseline \
        wire_bytes_saved integrity_failures hung cached baseline metrics \
        faulted_pages origin_payload_pages offloaded_pages \
        cache_hits cache_misses cache_insertions cache_evictions rounds"

  # Belt and braces: re-assert the headline gates from the emitted JSON.
  # Several gate keys recur inside the nested cached/baseline result objects
  # (where e.g. the baseline's offload ratio is legitimately 0), so every
  # grep anchors on the two-space indent of a top-level key.
  if ! grep -q '^  "integrity_failures": 0' "$OUT"; then
    echo "check_bench: dedup sweep reports integrity failures in $OUT" >&2
    status=1
  fi
  if ! grep -q '^  "hung": 0' "$OUT"; then
    echo "check_bench: dedup sweep reports hung rounds in $OUT" >&2
    status=1
  fi
  RATIO=$(grep -o '^  "origin_offload_ratio": [0-9.eE+-]*' "$OUT" | head -n1 | awk '{print $2}')
  if [ -z "$RATIO" ] || ! awk -v r="$RATIO" 'BEGIN { exit !(r >= 0.5) }'; then
    echo "check_bench: origin offload '$RATIO' is below 0.5 in $OUT" >&2
    status=1
  fi
  CACHED=$(grep -o '^  "wire_bytes_cached": [0-9]*' "$OUT" | head -n1 | awk '{print $2}')
  BASE=$(grep -o '^  "wire_bytes_baseline": [0-9]*' "$OUT" | head -n1 | awk '{print $2}')
  if [ -z "$CACHED" ] || [ -z "$BASE" ] || ! awk -v c="$CACHED" -v b="$BASE" 'BEGIN { exit !(c < b) }'; then
    echo "check_bench: cached wire bytes '$CACHED' not below baseline '$BASE' in $OUT" >&2
    status=1
  fi
elif [ "$MODE" = "precopy" ]; then
  OUT=${2:-BENCH_precopy.json}
  # The live pre-copy grid: 7 workloads x (3 paper strategies + round caps
  # {1,4,8} x downtime SLOs {off, 1 s, 5 s}). The binary exits non-zero if
  # any trial hung or failed to complete, if pre-copy did not beat pure-copy
  # on downtime for the compute-bound workloads, if the page-byte ordering
  # precopy >= pure-copy >= IOU broke, or if the SLO predictor never fired.
  "$BIN" --out "$OUT"
  KEYS="bench schema_version seed trial_count completed hung \
        downtime_wins downtime_win_ok bytes_ordering_ok slo_ok pareto cells \
        downtime_s page_bytes wws_pages predicted_downtime_s slo_met rounds"

  # Belt and braces: re-assert the headline gates from the emitted JSON.
  if ! grep -q '"hung": 0' "$OUT"; then
    echo "check_bench: pre-copy sweep reports hung trials in $OUT" >&2
    status=1
  fi
  if ! grep -q '"downtime_win_ok": true' "$OUT"; then
    echo "check_bench: pre-copy did not beat pure-copy on downtime for the compute-bound workloads in $OUT" >&2
    status=1
  fi
  if ! grep -q '"bytes_ordering_ok": true' "$OUT"; then
    echo "check_bench: page-byte ordering precopy >= pure-copy >= IOU broke in $OUT" >&2
    status=1
  fi
  if ! grep -q '"slo_ok": true' "$OUT"; then
    echo "check_bench: the downtime-SLO predictor never fired on a compute-bound workload in $OUT" >&2
    status=1
  fi
elif [ "$MODE" = "checkpoint" ]; then
  OUT=${2:-BENCH_checkpoint.json}
  # The failure matrix re-run with the durable checkpoint store on. The
  # binary exits non-zero if any trial hung, any completion was corrupted,
  # or any pure-IOU source-crash cell failed to restore and finish.
  "$BIN" --out "$OUT"
  KEYS="bench schema_version trial_count completed aborted terminal_faults \
        terminal_breakdown restored hung integrity_failures \
        unsurvivable_pure_iou_source_crash trials"

  # Belt and braces: re-assert the survivability gates from the JSON.
  if ! grep -q '"hung": 0' "$OUT"; then
    echo "check_bench: checkpoint matrix reports hung trials in $OUT" >&2
    status=1
  fi
  if ! grep -q '"integrity_failures": 0' "$OUT"; then
    echo "check_bench: checkpoint matrix reports corrupted completions in $OUT" >&2
    status=1
  fi
  if ! grep -q '"unsurvivable_pure_iou_source_crash": 0' "$OUT"; then
    echo "check_bench: a pure-IOU source-crash cell stayed terminal in $OUT" >&2
    status=1
  fi
else
  OUT=${2:-BENCH_failure.json}
  # The full matrix (7 workloads x 4 strategies x 4 scenarios). The binary
  # itself exits non-zero if any trial hung or completed with corrupted
  # contents, so set -e makes those hard failures here.
  "$BIN" --out "$OUT"
  KEYS="bench schema_version trial_count completed aborted terminal_faults \
        terminal_breakdown restored hung integrity_failures trials"

  # Belt and braces: re-assert the invariants from the emitted JSON.
  if ! grep -q '"hung": 0' "$OUT"; then
    echo "check_bench: failure matrix reports hung trials in $OUT" >&2
    status=1
  fi
  if ! grep -q '"integrity_failures": 0' "$OUT"; then
    echo "check_bench: failure matrix reports corrupted completions in $OUT" >&2
    status=1
  fi
fi

for key in $KEYS; do
  if ! grep -q "\"$key\"" "$OUT"; then
    echo "check_bench: missing key \"$key\" in $OUT" >&2
    status=1
  fi
done

# Rates must be positive numbers, not nan/inf.
if grep -qiE "nan|inf" "$OUT"; then
  echo "check_bench: non-finite number in $OUT" >&2
  status=1
fi

if [ "$status" -eq 0 ]; then
  echo "check_bench: $OUT schema ok"
fi
exit "$status"
