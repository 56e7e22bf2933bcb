#!/usr/bin/env python3
"""Smoke test of the benchmark.

Runs every workload in BENCHMARK.json briefly, end to end and traced, and
checks that the result line names each metric BENCHMARK.json lists for that
mode, with its unit, that every value is finite and every end-to-end value
non-zero, and that no request failed (fail_ratio == 0).

Run from the repository root (the first call builds):

    python3 perfbench/smoke_test.py
"""
import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "2"


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", SECONDS, "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {proc.returncode}\n"
                             f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return proc.stdout


def check(workload, trace, stdout, expected):
    where = f"{workload} trace={trace}"
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, where
    assert result["attempted"] >= 1 and result["failed"] == 0, where
    ratio = re.search(r"fail_ratio\s+([0-9.]+) ratio", stdout)
    assert ratio and float(ratio.group(1)) == 0.0, f"{where}: fail_ratio"
    metrics = result["metrics"]
    assert set(metrics) == set(expected), \
        f"{where}: metrics differ: {sorted(set(metrics) ^ set(expected))}"
    for name, unit in expected.items():
        value = metrics[name]["value"]
        assert metrics[name]["unit"] == unit, f"{where}: {name} unit"
        assert isinstance(value, (int, float)) and math.isfinite(value), \
            f"{where}: {name} = {value}"
        if trace == 0:
            assert value != 0, f"{where}: {name} is 0"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for w in bench["workloads"]:
        for trace, expected in ((0, e2e), (1, layers)):
            check(w["name"], trace, run(w["name"], trace), expected)
            print(f"ok  {w['name']} trace={trace}", flush=True)
    print("perfbench smoke test passed")


if __name__ == "__main__":
    main()
