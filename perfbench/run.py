#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload cell_churn|cluster_churn|shape_nn \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. The first run configures and builds the
benchmark program (perfbench/CMakeLists.txt, Release) into .bench_build/;
later runs only rebuild what changed. The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "odn_perfbench")
WORKLOADS = ("cell_churn", "cluster_churn", "shape_nn")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_quiet(command, timeout):
    """Runs a build step with its output on stderr; fails on error."""
    done = subprocess.run(command, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr, timeout=timeout)
    if done.returncode != 0:
        fail("build step failed: " + " ".join(command))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no repository sources next to perfbench/ (src/ is missing)")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", BUILD_DIR, "--target", "odn_perfbench",
               "-j", jobs], timeout=1500)


def source_stamp():
    """Commit id when the checkout is a git repository, plus a digest of
    the sources the program is built from (checkouts may carry no git)."""
    commit = "nogit"
    try:
        done = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=10)
        if done.returncode == 0 and done.stdout.strip():
            commit = done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for folder, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return commit + "+src." + digest.hexdigest()[:12]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--digests", os.path.join(BENCH_DIR, "digests.txt"),
               "--commit", source_stamp()]
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s timed out" % args.workload)
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines[-1].startswith("{"):
        sys.stdout.write(done.stdout)
        fail("odn_perfbench exited with code %d" % done.returncode)
    result = json.loads(lines[-1])

    # Every workload reports the whole declared set: a layer the workload
    # never enters reads 0 (its spans and counters never fired).
    metrics = result["metrics"]
    for name, metric in metrics.items():
        if units.get(name) != metric["unit"]:
            fail("metric %s (%s) is not declared in BENCHMARK.json"
                 % (name, metric["unit"]))
    if not args.trace and set(metrics) != set(units):
        fail("end-to-end metrics missing from odn_perfbench's output")
    for name, unit in units.items():
        metrics.setdefault(name, {"value": 0, "unit": unit})

    for line in lines[:-1]:
        print(line)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {name: metrics[name]
                                  for name in sorted(metrics)}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
