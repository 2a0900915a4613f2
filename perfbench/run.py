#!/usr/bin/env python3
"""Builds the repo benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds the
platform libraries and the perfbench binary into $CARGO_TARGET_DIR (default
.bench_build) under the checkout; later calls rebuild incrementally. Build
output goes to stderr; the last stdout line is the binary's JSON result.
A traced run (--trace 1) also writes its spans as JSONL under the build
directory. Exits non-zero, without a result, when the platform sources are
not beside this directory or the build fails.

An untraced run of a workload listed in PARTS is measured by that many
processes in turn, each for its share of --seconds, and each metric is the
mean of the processes' values (peak_rss_mb: the highest).
experiment_announce's throughput moves by up to a quarter between
processes of one seed with the address-space layout alone (ASLR, or the
size of the environment), so a run averages several layouts instead of
drawing one.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("table_load", "churn_fanout", "experiment_announce", "forward")
PARTS = {"experiment_announce": 4}


def run_timeout(seconds):
    """A whole run, all of its processes together, ends within this many
    seconds: input generation, set-up sampling and the oracles take a fixed
    allowance; table_load's per-round set-up and oracle scale with the
    measured time."""
    return 150 + 2 * seconds


def log(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures once, then builds only the perfbench target."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True, timeout=300)
    subprocess.run(
        ["cmake", "--build", out_dir, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr, check=True, timeout=840)
    return os.path.join(out_dir, "perfbench")


def run_part(cmd, timeout):
    """Runs one binary invocation; returns (exit code, stdout lines)."""
    try:
        # subprocess.run kills and reaps the child on timeout.
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log("benchmark run timed out")
        return 3, []
    return proc.returncode, proc.stdout.strip().splitlines()


def combine(results):
    """One result from several processes' results: each metric is the mean
    of the processes' values, except peak_rss_mb, the highest."""
    metrics = {}
    for name, entry in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        value = max(values) if name == "peak_rss_mb" else \
            sum(values) / len(values)
        metrics[name] = {"value": value, "unit": entry["unit"]}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Input-size multiplier for the self-test; the benchmark runs at 1.
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"platform sources not found at {os.path.join(ROOT, 'src')}")
        return 2
    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as err:
        log(f"build failed: {err}")
        return 2

    parts = 1 if args.trace else PARTS.get(args.workload, 1)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds / parts), "--trace", str(args.trace),
           "--scale", str(args.scale), "--parts", str(parts)]
    if args.trace:
        trace_dir = os.path.join(out_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.jsonl")]

    results = []
    status = 0
    for _ in range(parts):
        code, lines = run_part(cmd, run_timeout(args.seconds) / parts)
        if not lines or not lines[-1].startswith("{"):
            log(f"no result line (exit {code})")
            return code or 4
        status = status or code
        results.append(json.loads(lines[-1]))
    print(json.dumps(combine(results)), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
