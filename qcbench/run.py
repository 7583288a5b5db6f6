#!/usr/bin/env python3
"""Build qcached and the qcbench load generator from this source tree, run one
workload, and print its metrics.

    python3 qcbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of the source tree. The build goes to .bench_build/
(configured once, then incremental). qcbench's metric lines
(`workload metric value unit`) are echoed to stdout, and the last stdout
line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are BENCHMARK.json's end_to_end metrics with --trace 0 and
its per_layer metrics with --trace 1 (that run also writes the Chrome
trace to .bench_build/traces/). Exits non-zero, printing no JSON, when
the build or the run fails; exits 1 after the JSON when an answer was
wrong.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "qcbench"), "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "qcbench", "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"run.py: build failed: {e}")
        return 2

    command = [os.path.join(BUILD, "qcbench"), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--workdir", os.path.join(ROOT, ".bench_build", "work")]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(traces, f"{args.workload}-{args.seed}.json")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: qcbench did not finish within {RUN_TIMEOUT_S} s")
        return 2

    values = {}
    for line in run.stdout.splitlines():
        print(line)
        fields = line.split()
        if len(fields) == 4 and fields[0] == args.workload:
            values[fields[1]] = (float(fields[2]), fields[3])
    if run.returncode not in (0, 1) or "run.correct" not in values:
        log(f"run.py: qcbench exited with code {run.returncode}")
        return 2

    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name not in values or values[name][1] != metric["unit"]:
            log(f"run.py: qcbench reported no {name} in {metric['unit']}")
            return 2
        metrics[name] = {"value": values[name][0], "unit": metric["unit"]}
    correct = run.returncode == 0 and values["run.correct"][0] == 1
    print(json.dumps({"correct": correct,
                      "attempted": int(values["run.attempted"][0]),
                      "failed": int(values["run.failed"][0]),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
