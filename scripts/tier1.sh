#!/usr/bin/env bash
# Tier-1 verification (ROADMAP.md): configure, build and run the full test
# suite. Pass --asan to run the same suite under ASan+UBSan (the `asan`
# CMake preset, building into build-asan/), or --tsan for ThreadSanitizer
# (the `tsan` preset, build-tsan/).
#
# Pass --txn to run only the transaction-layer suite (ctest label `txn`)
# with an enlarged seeded-random sweep; --hotkey for the hot-key replication
# plane suite (ctest label `hotkey`, DESIGN.md §12) likewise widened;
# --scan for the ordered-index + range-scan suite (ctest label `scan`,
# DESIGN.md §13) with both the index model check and the scan-mid-migration
# sweep enlarged; --failover for the fast-failover agreement plane suite
# (ctest label `failover`, DESIGN.md §14) with its seeded-random sweep
# widened; --labels <regex> to run any other ctest label subset
# (unit/chaos/txn/scale/hotkey/scan/failover, see tests/CMakeLists.txt).
# Modes compose: `tier1.sh --asan --txn` runs the txn suite under ASan with
# the sweep scaled down to sanitizer speed.
set -euo pipefail
cd "$(dirname "$0")/.."

preset=default
label_regex=""
mode=""
# Dedicated label modes (--txn, --hotkey, --scan, --failover): each runs its
# ctest label alone and, in the default preset, widens that suite's seeded
# sweeps to these VAR=default values (an exported VAR still wins):
#   txn      -- the txn-kill-mid-commit family, well past the 100-run floor
#   hotkey   -- the promotion/invalidation family, past the 6 in-suite runs
#   scan     -- the scan-mid-migration family past its 25 in-suite runs, and
#               the index model check past its 200-seed floor
#   failover -- the kill/torn-revocation/split-ballot family, past 40 runs
declare -A widen=(
  [txn]="HYDRA_TXN_RANDOM_RUNS=200"
  [hotkey]="HYDRA_HOTKEY_RANDOM_RUNS=60"
  [scan]="HYDRA_SCAN_RANDOM_RUNS=100 HYDRA_INDEX_RANDOM_RUNS=500"
  [failover]="HYDRA_FAILOVER_RANDOM_RUNS=60"
)
while [[ $# -gt 0 ]]; do
  case "$1" in
    --asan|--tsan)
      preset="${1#--}"
      shift
      # The chaos sweeps run their full random schedules in the default
      # preset; under a sanitizer each run is ~10x slower, so scale the
      # randomized portions down (the scripted runs always execute in full).
      # This covers migration_test too: its scripted families plus a reduced
      # random sweep run under both --asan and --tsan.
      export HYDRA_CHAOS_RANDOM_RUNS="${HYDRA_CHAOS_RANDOM_RUNS:-40}"
      export HYDRA_MIGRATION_RANDOM_RUNS="${HYDRA_MIGRATION_RANDOM_RUNS:-8}"
      export HYDRA_TXN_RANDOM_RUNS="${HYDRA_TXN_RANDOM_RUNS:-30}"
      export HYDRA_HOTKEY_RANDOM_RUNS="${HYDRA_HOTKEY_RANDOM_RUNS:-8}"
      export HYDRA_SCAN_RANDOM_RUNS="${HYDRA_SCAN_RANDOM_RUNS:-8}"
      export HYDRA_INDEX_RANDOM_RUNS="${HYDRA_INDEX_RANDOM_RUNS:-60}"
      export HYDRA_FAILOVER_RANDOM_RUNS="${HYDRA_FAILOVER_RANDOM_RUNS:-8}"
      ;;
    --txn|--hotkey|--scan|--failover)
      mode="${1#--}"
      label_regex="$mode"
      shift
      ;;
    --labels)
      label_regex="$2"
      shift 2
      ;;
    *)
      break
      ;;
  esac
done

if [[ -n "$mode" && "$preset" == default ]]; then
  for pair in ${widen[$mode]}; do
    var="${pair%%=*}"
    export "$var=${!var:-${pair#*=}}"
  done
fi

cmake --preset "$preset"
cmake --build --preset "$preset" -j "$(nproc)"
ctest_args=()
if [[ -n "$label_regex" ]]; then
  ctest_args+=(--label-regex "$label_regex")
fi
ctest --preset "$preset" -j "$(nproc)" "${ctest_args[@]}" "$@"

# Under a sanitizer, also smoke the connection-scalability path (DESIGN.md
# §10) at ~5k muxed clients: enough to exercise the shared-ring demux,
# credit waits and the reaper with sanitizer instrumentation live, without
# the cost of the full 100k sweep.
if [[ "$preset" != default && -z "$label_regex" ]]; then
  "build-$preset/bench/bench_fig12_scalability" \
    --clients=5000 --mux --json="build-$preset/BENCH_fig12_smoke.json"
fi
