#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <prefill_batch|decode_open|norm_stream> \
        --seed N --seconds S --trace <0|1>

Configures and builds perfbench/ (the haan libraries plus the `perfbench`
binary) under $CARGO_TARGET_DIR (default .bench_build), in a directory named
after the source tree, with CMake, then runs the binary. The binary's last
stdout line is its JSON result; this script checks its metric names and
units against BENCHMARK.json, the one list of metrics, adds the per-layer
metrics of layers the workload does not run as 0, and prints the result.
Exit code: the binary's, or 2 when the build or the result is unusable.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """Digest of the sources the benchmark builds from."""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            if os.path.isfile(name):
                digest.update(os.path.relpath(name, ROOT).encode())
                with open(name, "rb") as handle:
                    digest.update(handle.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def provenance():
    """Commit id when the checkout is a git repository (marked -dirty, with
    the source digest, when the tree has uncommitted changes), else the
    source digest."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "describe", "--always", "--dirty",
                                  "--abbrev=12"], capture_output=True, text=True, timeout=10)
            commit = out.stdout.strip()
            if out.returncode == 0 and commit:
                return commit + " " + source_digest() if commit.endswith("-dirty") else commit
        except (OSError, subprocess.SubprocessError):
            pass
    return source_digest()


def build(build_dir):
    """Configure and build; both are quick when nothing changed, and CMake
    refuses a build directory configured from another source tree."""
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]]
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                fail(f"build step failed: {' '.join(step)} (log: {log_path})")
    binary = os.path.join(build_dir, "perfbench")
    if not os.path.isfile(binary):
        fail("build produced no perfbench binary")
    return binary


def check_metrics(result, specs, fill_zero):
    """Checks the result's metrics against BENCHMARK.json: every name listed
    once with its unit, nothing else. With `fill_zero`, metrics of layers the
    workload does not run are added as 0."""
    metrics = result["metrics"]
    extra = sorted(set(metrics) - {spec["name"] for spec in specs})
    if extra:
        fail(f"metrics not in BENCHMARK.json: {extra}")
    ordered = {}
    for spec in specs:
        metric = metrics.get(spec["name"])
        if metric is None:
            if not fill_zero:
                fail(f"metric {spec['name']} missing")
            metric = {"value": 0, "unit": spec["unit"]}
        if metric["unit"] != spec["unit"]:
            fail(f"metric {spec['name']} in {metric['unit']}, BENCHMARK.json says {spec['unit']}")
        ordered[spec["name"]] = {"value": metric["value"], "unit": metric["unit"]}
    return {"correct": result["correct"], "attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "metrics": ordered}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail(f"no haan sources next to perfbench/ (looked in {ROOT})")
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as handle:
        spec = json.load(handle)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")

    # One build directory per source tree, so checkouts that share a
    # CARGO_TARGET_DIR never run each other's build.
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    tree = hashlib.sha256(os.path.realpath(ROOT).encode()).hexdigest()[:12]
    build_dir = os.path.join(ROOT, target, "perfbench-" + tree)
    binary = build(build_dir)
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--commit", provenance(), "--out-dir", trace_dir]
    run = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail(f"perfbench printed no JSON result (exit {run.returncode})")

    result = check_metrics(result, spec["per_layer" if args.trace == "1" else "end_to_end"],
                           fill_zero=args.trace == "1")
    print(json.dumps(result), flush=True)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
