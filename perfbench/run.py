#!/usr/bin/env python3
"""Build and run the imbar benchmark; see perfbench/README.md.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The benchmark binary is built from the
checkout's sources into .bench_build/perfbench on first use. The last
line of standard output is the result: {"correct", "attempted",
"failed", "metrics"}, with the end-to-end metrics of BENCHMARK.json
(--trace 0) or its per-layer metrics (--trace 1).
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("barrier_lockstep", "barrier_skewed", "service_journal")
RUN_TIMEOUT_S = 170


def die(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(target):
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("library sources (src/) not found next to perfbench/", 2)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", target, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, target)


def commit():
    """The checkout's commit, read from .git without leaving the checkout."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as f:
                return f.read().strip()
        return ref
    except OSError:
        return "unknown"


def check_metrics(result, trace):
    """Match the binary's metrics to BENCHMARK.json: same names and units.
    A traced run reports zero for layers its workload does not exercise."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)["per_layer" if trace else "end_to_end"]
    except (OSError, KeyError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e, 2)
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in spec}
    extra = sorted(set(got) - set(want))
    if extra:
        die("metrics missing from BENCHMARK.json: %s" % ", ".join(extra))
    for name, unit in want.items():
        if name not in got:
            if not trace:
                die("end-to-end metric not measured: " + name)
            got[name] = {"value": 0, "unit": unit}
        elif got[name]["unit"] != unit:
            die("unit of %s is %s, BENCHMARK.json says %s"
                % (name, got[name]["unit"], unit))
    result["metrics"] = {m["name"]: got[m["name"]] for m in spec}
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own unit tests")
    args = ap.parse_args()

    if args.selftest:
        sys.exit(subprocess.run([build("perfbench_selftest")]).returncode)
    if args.workload is None:
        die("--workload is required", 2)

    binary = build("imbar_perfbench")
    out_dir = os.path.join(BUILD, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir, "--commit", commit()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("run exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        die("benchmark binary exited with code %d" % proc.returncode, proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        die("benchmark binary printed nothing")
    for line in lines[:-1]:
        print(line)
    result = check_metrics(json.loads(lines[-1]), args.trace == 1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
