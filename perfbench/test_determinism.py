#!/usr/bin/env python3
"""The benchmark's own test: every non-timing output is reproducible.

    python3 perfbench/test_determinism.py

For each workload, at the small size and one seed, it runs the benchmark
twice untraced and once traced, and asserts that every non-timing output
(result digests, simulated cycles, counters, request statuses, memo
counts) is identical across the three runs, that every check passed, and
that tpfa_wide gives the same outputs at 1 and 4 engine threads. Exits
non-zero on the first difference.
"""
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
WORKLOADS = ("tpfa_wide", "tpfa_deep", "wafer_setup", "serve_mix")


def run(workload, trace=0, threads=0):
    with tempfile.NamedTemporaryFile(suffix=".json") as out:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
             "--small", "1", "--threads", str(threads), "--outputs", out.name],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(out.name) as f:
            outputs = json.load(f)
    if not result["correct"]:
        raise AssertionError(f"{workload}: an output check failed")
    return outputs


def expect_equal(label, a, b):
    if a != b:
        diff = {k: (a.get(k), b.get(k)) for k in sorted(set(a) | set(b))
                if a.get(k) != b.get(k)}
        raise AssertionError(f"{label}: outputs differ: {diff}")


def main():
    for workload in WORKLOADS:
        first = run(workload)
        expect_equal(f"{workload} rerun", first, run(workload))
        expect_equal(f"{workload} traced", first, run(workload, trace=1))
        print(f"ok  {workload}: {len(first)} outputs identical over 3 runs")
    one = run("tpfa_wide", threads=1)
    four = run("tpfa_wide", threads=4)
    one.pop("workload.threads")
    four.pop("workload.threads")
    expect_equal("tpfa_wide threads 1 vs 4", one, four)
    print("ok  tpfa_wide: identical outputs at 1 and 4 threads")


if __name__ == "__main__":
    main()
