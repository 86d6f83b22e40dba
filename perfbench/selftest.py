#!/usr/bin/env python3
"""Self-test of the benchmark itself, on a small size of every workload.

Checks, for each workload:
  * the same seed gives bit-identical virtual-time metrics, per-layer
    counts and trace fingerprint, with tracing off and on;
  * a different seed gives a different trace;
  * every op succeeds and every output check passes.
It also checks that BENCHMARK.json (when present) lists the metrics of
metrics.json with the same units and directions.

Run from the root of a checkout:  python3 perfbench/selftest.py
"""
import json
import sys

import run

SMALL = ["--small", "--ops-per-client", "200", "--setups", "1"]


def small_run(binary, workload, seed, trace=0):
    return run.run_bench(binary, ["--workload", workload, "--seed", str(seed),
                                  "--trace", str(trace)] + SMALL)


def check_catalogue(errors):
    path = run.ROOT / "BENCHMARK.json"
    if not path.exists():
        return
    bench = json.loads(path.read_text())
    cat = run.catalogue()
    for section in ("end_to_end", "per_layer"):
        listed = {m["name"]: (m["unit"], m["better"]) for m in bench[section]}
        known = {k: (v["unit"], v["better"]) for k, v in cat[section].items()}
        if listed != known:
            errors.append(f"BENCHMARK.json {section} differs from metrics.json")
    if sorted(w["name"] for w in bench["workloads"]) != sorted(run.WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from run.py")


def main():
    binary = run.build()
    errors = []
    check_catalogue(errors)
    for w in run.WORKLOADS:
        a = small_run(binary, w, 11)
        b = small_run(binary, w, 11)
        traced = small_run(binary, w, 11, trace=1)
        other = small_run(binary, w, 12)
        for name, r in (("first", a), ("repeat", b), ("traced", traced), ("seed 12", other)):
            if r["violations"] or r["failed"] or r["attempted"] < 1:
                errors.append(f"{w} {name}: {r['failed']} failed, {r['violations']} violations")
        for name, r in (("repeat", b), ("traced", traced)):
            if r["virtual"] != a["virtual"] or r["fingerprint"] != a["fingerprint"]:
                diff = sorted(k for k in a["virtual"] if a["virtual"][k] != r["virtual"].get(k))
                errors.append(f"{w}: {name} run is not bit-identical on the virtual clock: {diff}")
        if other["fingerprint"] == a["fingerprint"]:
            errors.append(f"{w}: seeds 11 and 12 gave the same trace")
        print(f"{w}: {a['attempted']} ops, fingerprint {a['fingerprint']}", flush=True)
    for e in errors:
        print(f"FAIL {e}", file=sys.stderr)
    print("selftest " + ("FAILED" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
