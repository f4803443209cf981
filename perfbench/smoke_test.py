#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

Runs every workload at its tiny `smoke` size, untraced and traced, for one
second each. Checks that the result line has exactly its four keys
(correct, attempted, failed, metrics), that the correctness gate passed,
and that every metric named in BENCHMARK.json is emitted with its unit:
end-to-end metrics untraced, per-layer metrics traced. Takes seconds once
the program is built.
"""

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def check(spec, workload, trace):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--size", "smoke"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    errors = []
    if proc.returncode != 0:
        errors.append(f"exit code {proc.returncode}: {proc.stderr[-400:]}")
        return errors
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0:
        errors.append("correctness gate failed")
    if result["attempted"] < 1:
        errors.append("no result attempted")
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    if sorted(got) != sorted(m["name"] for m in wanted):
        errors.append(f"metric names differ: {sorted(got)}")
    for m in wanted:
        value = got.get(m["name"])
        if value is None:
            continue
        if value.get("unit") != m["unit"]:
            errors.append(f"{m['name']}: unit {value.get('unit')}")
        if not isinstance(value.get("value"), (int, float)):
            errors.append(f"{m['name']}: value {value.get('value')}")
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    # apertif_stream is not in BENCHMARK.json (see README.md) but stays
    # runnable, so it is smoke-tested too.
    workloads = [w["name"] for w in spec["workloads"]]
    if "apertif_stream" not in workloads:
        workloads.append("apertif_stream")
    for workload in workloads:
        for trace in (0, 1):
            errors = check(spec, workload, trace)
            status = "ok" if not errors else "FAIL"
            print(f"{workload} trace={trace}: {status}")
            for e in errors:
                print(f"  {e}")
            failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
