#!/usr/bin/env python3
"""HydraDB end-to-end benchmark.

Builds the bench program (perfbench/main.cpp plus the repository's
src/) with CMake, runs ONE workload in a fresh process and prints, as the
last line of standard output, one JSON object:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of metrics.json; with
--trace 1 they are the per-layer ones, from a run that also records spans
(written under the build directory) and reports the tracing overhead.

Run from the root of a checkout:

    python3 perfbench/run.py --workload read-zipf --seed 1 --seconds 22 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("read-zipf", "write-rep", "scan-e", "mux-fanin")
SETUPS = 3          # set-ups per run; setup_s is their median
RUN_TIMEOUT_S = 170  # a run is expected to end within 3 minutes


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve() / "perfbench"


def build():
    """Configures and builds the bench program (a no-op when up to date); returns its path."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "--target", "hydra_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "hydra_perfbench"


def run_bench(binary, args):
    """Runs the bench program and returns its JSON report (its last stdout line)."""
    proc = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"bench program exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("bench program printed no report")
    return json.loads(lines[-1])


def catalogue():
    with open(HERE / "metrics.json") as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=22)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seed < 0 or a.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--setups", str(SETUPS), "--trace", str(a.trace)]
    if a.trace:
        spans = build_dir() / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        args += ["--spans", str(spans / f"{a.workload}.csv")]  # latest run only
    report = run_bench(binary, args)

    cat = catalogue()["per_layer" if a.trace else "end_to_end"]
    values = {**report["virtual"], **report["host"]}
    missing = [name for name in cat if name not in values]
    if missing:
        raise RuntimeError(f"bench program did not report {missing} (too few samples?)")
    metrics = {name: {"value": values[name], "unit": spec["unit"]} for name, spec in cat.items()}
    v = report["virtual"]
    log(f"{a.workload} seed {a.seed}: {report['attempted']} ops, {report['failed']} failed, "
        f"{report['violations']} output-check violations")
    for op in ("read", "update"):
        if f"{op}_p50_us" in v:
            log(f"{op}: {v[f'ycsb.{op}_samples']:.0f} samples, p50 {v[f'{op}_p50_us']} us, "
                f"p99.9 {v[f'{op}_p999_us']} us, mean {v[f'{op}_mean_us']:.3f} us")
    print(json.dumps({
        "correct": report["violations"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    try:
        main()
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"error: {e}")
        sys.exit(1)
