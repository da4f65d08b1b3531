#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload and seed.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark binary and the library it
measures are built from source with CMake into $CARGO_TARGET_DIR (default
.bench_build) on first use. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}; --trace 0 reports
every end-to-end metric of BENCHMARK.json, --trace 1 every per-layer metric.
Names, units and order of the metrics come from BENCHMARK.json; the binary
reports measured values by name. The exit code is non-zero when the build
fails, a check fails, or a listed metric is missing or not finite.
"""
import argparse
import fcntl
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 175


def build(build_root):
    """Configures and builds perfbench; returns the binary path."""
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_root, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in (
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", build_dir, "--target", "perfbench",
             "-j", str(os.cpu_count() or 1)],
        ):
            # Build output goes to stderr: stdout ends with the result line.
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                sys.exit("perfbench: build failed")
    return os.path.join(build_dir, "perfbench")


def print_kernel_reference(gb_per_s):
    """Prints dist.gb_per_s next to the committed gather-kernel roofline row."""
    try:
        with open(os.path.join(ROOT, "BENCH_kernels.json")) as f:
            kernels = json.load(f)
        impl = kernels.get("dispatched", "avx2")
        rows = [r for r in kernels["results"]
                if r.get("kernel") == "l2_score_ids" and r.get("dim") == 128]
        row = next((r for r in rows if r.get("impl") == impl), rows[0])
    except (OSError, ValueError, KeyError, IndexError, TypeError, StopIteration):
        return
    print(f"dist.gb_per_s {gb_per_s:.3f} GB/s; BENCH_kernels.json l2_score_ids "
          f"(dim 128, {row.get('impl')}): {row.get('gb_per_sec')} GB/s, "
          f"{row.get('ns_per_row')} ns/row")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit(f"perfbench: unknown workload {args.workload}")
    expected = spec["per_layer" if args.trace else "end_to_end"]

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(ROOT, build_root)
    binary = build(build_root)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(build_root, "perfbench", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}.csv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")

    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        measured = json.loads(lines[-1])
        values = measured["values"]
    except (ValueError, IndexError, KeyError, TypeError):
        sys.exit(f"perfbench: no result line (exit code {proc.returncode})")
    metrics = {}
    for m in expected:
        value = values.get(m["name"])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            sys.exit(f"perfbench: metric {m['name']} was not measured")
        print(f"{m['name']:<44} {value:.6g} {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    for name in sorted(set(values) - set(metrics)):
        print(f"{name:<44} {values[name]:.6g} (not in the result)")
    if args.trace:
        print_kernel_reference(values["dist.gb_per_s"])
    print(json.dumps({"correct": measured["correct"] is True,
                      "attempted": measured["attempted"],
                      "failed": measured["failed"], "metrics": metrics}))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
