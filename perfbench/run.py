#!/usr/bin/env python3
"""Build and run the monitoring-pipeline benchmark.

    python3 perfbench/run.py --workload crawl --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root.  The benchmark is built from source into
.bench_build (release profile), then bench.exe runs the workload; its
last stdout line is the JSON result.  Build output goes to stderr.
Exits non-zero, printing no result, when the build or an output check
fails.
"""
import argparse
import hashlib
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170


def build(target):
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/" + target]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    except FileNotFoundError:
        print("perfbench: dune not found", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return os.path.join(BUILD_DIR, "default", "perfbench", target)


def git_rev():
    try:
        done = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def source_hash():
    """Hash of the library and benchmark sources: the revision stamp
    that still works in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".ml", ".mli", "dune")):
                    path = os.path.join(root, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:12]


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true",
                   help="check the benchmark's own arithmetic and exit")
    args = p.parse_args()

    if args.selftest:
        exe = build("selftest.exe")
        return 1 if exe is None else subprocess.run([exe]).returncode
    if args.workload is None:
        p.error("--workload is required")

    exe = build("bench.exe")
    if exe is None:
        return 1
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--rev", git_rev(), "--src", source_hash()]
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
