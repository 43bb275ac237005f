#!/usr/bin/env python3
"""Host benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the libraries and the driver from the checkout's sources into
.bench_build/perfbench (CMake, Release), runs one workload in its own
process with stderr sent to a log file, and prints one JSON object as
the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json;
with --trace 1 they are its per_layer metrics, and the run's spans are
written to .bench_build/perfbench/spans/. Extra options used by
perfbench/test_determinism.py: --small 1 (shrunken inputs), --threads N
(engine threads), --outputs PATH (write the exact non-timing outputs).
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
DRIVER_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no library sources under {ROOT}; run from a fluxwse checkout")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j4",
                      "--target", "perfbench_driver"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                fail(f"build failed; see {log_path}")


def count_lint_warnings(stderr_path):
    with open(stderr_path, errors="replace") as f:
        return sum(1 for line in f if line.startswith("warning["))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--small", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=0)
    parser.add_argument("--outputs")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        fail(f"unknown workload {args.workload}")
    declared = bench["per_layer" if args.trace else "end_to_end"]

    build()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    logs = os.path.join(BUILD, "logs")
    os.makedirs(logs, exist_ok=True)
    command = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--small", str(args.small), "--threads", str(args.threads),
               "--expected", os.path.join(HERE, "expected.json")]
    if args.trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        command += ["--spans", os.path.join(spans, f"{tag}.json")]
    stderr_path = os.path.join(logs, f"{tag}.stderr")
    with open(stderr_path, "w") as err:
        try:
            proc = subprocess.run(command, stdout=subprocess.PIPE, stderr=err,
                                  text=True, timeout=DRIVER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"driver exceeded {DRIVER_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"driver exited with {proc.returncode}; see {stderr_path}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("driver printed no result")
    result = json.loads(lines[-1])

    metrics = result["metrics"]
    if args.trace:
        metrics["lint.warnings"] = {"value": count_lint_warnings(stderr_path),
                                    "unit": "count"}
    names = {m["name"] for m in declared}
    unknown = sorted(set(metrics) - names)
    if unknown:
        fail(f"driver reported undeclared metrics {unknown}")
    for m in declared:
        if m["name"] in metrics:
            continue
        if args.trace:
            # A layer this workload does not exercise (see README.md).
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
        else:
            fail(f"driver did not report {m['name']}")
    for m in declared:
        if metrics[m["name"]]["unit"] != m["unit"]:
            fail(f"{m['name']} reported in {metrics[m['name']]['unit']}, "
                 f"declared in {m['unit']}")

    if args.outputs:
        with open(args.outputs, "w") as f:
            json.dump(result["outputs"], f, indent=1, sort_keys=True)
    final = {"correct": result["correct"], "attempted": result["attempted"],
             "failed": result["failed"],
             "metrics": {m["name"]: metrics[m["name"]] for m in declared}}
    print(json.dumps(final))


if __name__ == "__main__":
    main()
