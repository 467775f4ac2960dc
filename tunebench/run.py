#!/usr/bin/env python3
"""Build and run one workload of the tuning-stack benchmark.

    python3 tunebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds
tunebench/ (which compiles the library from ../src) under
$CARGO_TARGET_DIR/tunebench, default .bench_build/tunebench; later runs
only rebuild what changed. Build output goes to standard error. The
last line of standard output is the run's result object, and the exit
code is non-zero when the build fails, a correctness check fails, or
the result lacks a metric that BENCHMARK.json names.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tune-resident", "tune-evict", "dispatch-mixed", "tune-inproc")


def build(build_dir):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "tunebench",
                    "-j", jobs], check=True, stdout=sys.stderr)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_root = os.path.join(ROOT, build_root)
    build_dir = os.path.join(build_root, "tunebench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"tunebench: build failed: {error}", file=sys.stderr)
        return 2

    work_dir = os.path.join(build_root, "runs",
                            args.workload + ("-trace" if args.trace else ""))
    command = [os.path.join(build_dir, "tunebench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=args.seconds + 150)
    except subprocess.TimeoutExpired:
        print("tunebench: run timed out", file=sys.stderr)
        return 3
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        return run.returncode or 3
    # The binary prints every metric it can measure; the result line
    # carries exactly the ones BENCHMARK.json names, in its order.
    result = json.loads(lines[-1])
    expected = expected_metrics(args.trace)
    missing = [name for name in expected if name not in result["metrics"]]
    if missing:
        print(f"tunebench: result lacks metrics {missing}", file=sys.stderr)
        return 4
    result["metrics"] = {name: result["metrics"][name] for name in expected}
    print("\n".join(lines[:-1]))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
