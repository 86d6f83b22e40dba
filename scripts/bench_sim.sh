#!/usr/bin/env bash
# Regenerates BENCH_sim.json: the simulator's host cost per event.
#
# Runs the repo benchmark traced (`perfbench/run.py --trace 1`, seed 1, its
# default run length) on every workload and keeps the scheduler-level
# figures, then times the default-preset test suite:
#   sim.events_per_op             events per measured op (virtual, exact)
#   sim.peak_pending              largest pending-event count (virtual, exact)
#   sim.host_ns_per_event         host ns per simulator event, untraced half
#   trace.untraced_host_ops_per_s host ops/s of the untraced half
#   trace.probe_us                median speed-probe time; host figures scale
#                                 with it, so compare them across runs only
#                                 after normalising by it
#   ctest_wall_s                  `ctest -j$(nproc)` wall time
# The virtual figures must not move unless virtual time moves; the host
# figures carry the host they were measured on.
#
# Usage (from anywhere): scripts/bench_sim.sh [output.json]
set -euo pipefail
cd "$(dirname "$0")/.."
out="${1:-BENCH_sim.json}"
workloads=(read-zipf write-rep scan-e mux-fanin)
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

for w in "${workloads[@]}"; do
  python3 perfbench/run.py --workload "$w" --seed 1 --trace 1 | tail -n 1 > "$tmp/$w.json"
done

cmake --preset default > /dev/null
cmake --build --preset default -j "$(nproc)" > /dev/null
start=$(date +%s.%N)
ctest --test-dir build -j "$(nproc)" > "$tmp/ctest.log"
end=$(date +%s.%N)

python3 - "$tmp" "$out" "$start" "$end" "${workloads[@]}" <<'EOF'
import json, os, sys
tmp, out, start, end, workloads = sys.argv[1], sys.argv[2], float(sys.argv[3]), float(sys.argv[4]), sys.argv[5:]
keys = ("sim.events_per_op", "sim.peak_pending", "sim.host_ns_per_event",
        "trace.untraced_host_ops_per_s", "trace.probe_us")
model = "unknown"
with open("/proc/cpuinfo") as f:
    for line in f:
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
points = []
for w in workloads:
    with open(os.path.join(tmp, w + ".json")) as f:
        report = json.load(f)
    if not report["correct"] or report["failed"]:
        sys.exit(f"bench_sim: {w} reported correct={report['correct']} failed={report['failed']}")
    m = report["metrics"]
    points.append({"workload": w, "seed": 1, **{k: m[k]["value"] for k in keys}})
doc = {
    "bench": "sim_host_cost",
    "host": f"{model}, {os.cpu_count()} CPUs",
    "command": "perfbench/run.py --seed 1 --trace 1 per workload; ctest -j<nproc> on the default preset",
    "points": points,
    "ctest_wall_s": round(end - start, 2),
}
with open(out, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"wrote {out}")
EOF
