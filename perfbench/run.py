#!/usr/bin/env python3
"""Build and run the ddmc end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--size full|smoke]

Run from the root of a ddmc source tree. The benchmark program is built
from source with CMake (perfbench/CMakeLists.txt builds the library through
the repository's own CMake project) into $CARGO_TARGET_DIR, default
`.bench_build`, then run once. Build output goes to stderr; the program's
stdout is relayed, and its last line is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is the program's: 0 on success, non-zero when the build
fails, an option is invalid or the correctness gate fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("apertif_batch", "apertif_stream", "lofar_paced")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def run_logged(cmd):
    """Run a build step with its output on stderr; fail on error."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail(f"build step failed ({proc.returncode}): {' '.join(cmd)}")


def build(out):
    cmake_dir = os.path.join(out, "perfbench")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", BENCH_DIR, "-B", cmake_dir,
                    "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", cmake_dir, "--target", "perfbench",
                "-j", jobs])
    return os.path.join(cmake_dir, "perfbench")


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the sources the program is built from, so results of
    checkouts without git history can still be matched to their code."""
    digest = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", os.path.basename(BENCH_DIR)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in files:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--size", default="full", choices=("full", "smoke"))
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no ddmc source tree around {BENCH_DIR}")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    binary = build(out)
    results = os.path.join(out, "results")
    os.makedirs(results, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--size", args.size, "--out-dir", results,
           "--commit", commit(), "--source-digest", source_digest()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 3)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
