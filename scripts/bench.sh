#!/usr/bin/env bash
# Regenerates the checked-in virtual-time benchmark files:
#   BENCH_failover.json  bench_chaos_recovery --fast-failover
#   BENCH_micro.json     bench_micro --no-primitives
#   BENCH_txn.json       bench_txn
#   BENCH_hotkey.json    bench_hotkey
#   BENCH_ycsbE.json     bench_ycsb_e
# Every figure in them is measured on the simulator's virtual clock, so a
# rerun reproduces each file byte for byte unless virtual time moved.
# BENCH_sim.json holds host figures and has its own script (bench_sim.sh).
#
# Usage (from anywhere): scripts/bench.sh [--check] [--build-dir DIR]
#   (no flag)        rewrite the five files in the repo root
#   --check          write them to a temp dir and cmp each against the
#                    checked-in copy; exits 1 if any differs
#   --build-dir DIR  use the bench binaries already built in DIR instead of
#                    configuring and building the default preset
set -euo pipefail
cd "$(dirname "$0")/.."
root="$PWD"

check=0
build_dir=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --check) check=1; shift ;;
    --build-dir) build_dir="$2"; shift 2 ;;
    *) echo "bench.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done

if [[ -z "$build_dir" ]]; then
  build_dir="$root/build"
  cmake --preset default > /dev/null
  cmake --build --preset default -j "$(nproc)" --target \
    bench_chaos_recovery bench_micro bench_txn bench_hotkey bench_ycsb_e > /dev/null
fi
bin="$(cd "$build_dir" && pwd)/bench"

out="$root"
if [[ $check -eq 1 ]]; then
  out="$(mktemp -d)"
  trap 'rm -rf "$out"' EXIT
fi

{
  "$bin/bench_chaos_recovery" --fast-failover --json="$out/BENCH_failover.json"
  "$bin/bench_micro" --no-primitives --json="$out/BENCH_micro.json"
  "$bin/bench_txn" --json="$out/BENCH_txn.json"
  "$bin/bench_hotkey" --json="$out/BENCH_hotkey.json"
  "$bin/bench_ycsb_e" --json="$out/BENCH_ycsbE.json"
} > /dev/null

[[ $check -eq 1 ]] || exit 0
status=0
for f in BENCH_failover.json BENCH_micro.json BENCH_txn.json BENCH_hotkey.json BENCH_ycsbE.json; do
  if cmp -s "$out/$f" "$root/$f"; then
    echo "bench.sh: $f identical"
  else
    echo "bench.sh: $f differs from the checked-in copy:" >&2
    diff "$root/$f" "$out/$f" | head -n 20 >&2 || true
    status=1
  fi
done
exit $status
