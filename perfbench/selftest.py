#!/usr/bin/env python3
"""Small-scale self-test of the repo benchmark.

    python3 perfbench/selftest.py

Runs every workload at a small input scale (through run.py, so it also
builds) and checks that:
  * an untraced run emits exactly the end-to-end metrics of BENCHMARK.json
    and a traced run exactly its per-layer metrics;
  * every run is correct with no failed op and exits 0;
  * the [count] per-layer metrics are identical across two traced runs
    with the same seed;
  * the same seed gives the same inputs and a different seed different
    inputs (the input fingerprint each run prints to stderr).
Exits 0 when every check passes.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCALE = "0.05"
SECONDS = "2"

# Deterministic counts: a function of the seed and the fixed traced work.
COUNT_METRICS = [
    "bgp.decision.candidates_mean", "bgp.encode.cache_hit_ratio",
    "bgp.attr_pool.intern_hit_ratio", "bgp.attr_pool.sets",
    "bgp.groups.count", "bgp.groups.splices", "bgp.groups.full_resyncs",
    "bgp.groups.log_depth_p99", "bgp.mrai.flushes", "bgp.mrai.batch_mean",
    "bgp.rib.adj_in_bytes", "bgp.rib.loc_rib_bytes", "bgp.updates_out",
    "vbgp.import.nh_rewrites", "vbgp.import.nh_memo_hit_ratio",
    "vbgp.fanout.exports", "vbgp.fib.shared_bytes", "vbgp.fib.flat_bytes",
    "enforce.control.accepted", "enforce.control.transformed",
    "enforce.control.rejected", "enforce.data.dropped", "ip.fib.cow_growths",
    "ip.lpm.hit_ratio", "sim.loop.events", "sim.stream.bytes_out",
    "sim.link.frames_dropped", "mon.records", "mon.dropped",
    "mon.delivered_share", "ether.frames", "ether.arp_replies",
]


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", SECONDS, "--trace",
           str(trace), "--scale", SCALE]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    inputs = re.findall(r"inputs=([0-9a-f]+)", proc.stderr)
    return proc.returncode, result, inputs[-1] if inputs else None, proc.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    problems = []
    missing = set(COUNT_METRICS) - layers
    if missing:
        problems.append(f"count metrics not in BENCHMARK.json: {missing}")

    for w in (x["name"] for x in spec["workloads"]):
        runs = {
            "untraced": run(w, 1, 0),
            "traced": run(w, 1, 1),
            "traced again": run(w, 1, 1),
            "other seed": run(w, 2, 0),
        }
        for label, (code, result, _, err) in runs.items():
            if result is None or code != 0 or not result["correct"] or \
                    result["failed"] != 0:
                problems.append(f"{w} {label}: exit {code}, result {result}, "
                                f"stderr tail {err[-400:]!r}")
        if any(r[1] is None for r in runs.values()):
            continue
        got_e2e = set(runs["untraced"][1]["metrics"])
        got_layers = set(runs["traced"][1]["metrics"])
        if got_e2e != e2e:
            problems.append(f"{w}: end-to-end metrics differ: "
                            f"{sorted(got_e2e ^ e2e)}")
        if got_layers != layers:
            problems.append(f"{w}: per-layer metrics differ: "
                            f"{sorted(got_layers ^ layers)}")
        a = runs["traced"][1]["metrics"]
        b = runs["traced again"][1]["metrics"]
        for name in COUNT_METRICS:
            if name in a and a[name]["value"] != b.get(name, {}).get("value"):
                problems.append(f"{w}: {name} differs for one seed: "
                                f"{a[name]['value']} vs {b[name]['value']}")
        fingerprints = {k: r[2] for k, r in runs.items()}
        if None in fingerprints.values() or len(
                {fingerprints["untraced"], fingerprints["traced"],
                 fingerprints["traced again"]}) != 1:
            problems.append(f"{w}: same seed, different inputs: {fingerprints}")
        if fingerprints["other seed"] == fingerprints["untraced"]:
            problems.append(f"{w}: seeds 1 and 2 gave the same inputs")
        print(f"{w}: checked", flush=True)

    for p in problems:
        print(f"FAIL: {p}")
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
