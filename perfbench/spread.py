#!/usr/bin/env python3
"""Run one workload on several seeds and print each end-to-end metric's
median and quartile spread (IQR over median), the steadiness figure
BENCHMARK.json's bounds are judged against.

    python3 perfbench/spread.py --workload crawl --seeds 1-10 --seconds 10
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, default=0)
    args = p.parse_args()

    with open("BENCHMARK.json") as f:
        bounds = {m["name"]: m.get("bound") for m in json.load(f)["end_to_end"]}
    values = {}
    for seed in seeds_of(args.seeds):
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
            return 1
        result = json.loads(lines[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v['value']:.4g}"
                         for k, v in result["metrics"].items()),
              flush=True)
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None else (
            "  ok" if spread < bound / 3 else "  WIDE" if spread < bound
            else "  OVER")
        print(f"{name:24s} median={med:.5g} spread={spread:.4f}"
              f" bound={bound}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
