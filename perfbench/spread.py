#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload geo-slt-doubling

Runs perfbench/run.py once per seed (seeds 1..10, one after another) and
prints, for every end-to-end metric in BENCHMARK.json, the median and
the interquartile range as a share of the median next to the metric's
bound. A spread above a third of its bound is marked.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    values = {}
    for seed in SEEDS:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit("seed %d: incorrect result %s" % (seed, result))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (k, m["value"]) for k, m in result["metrics"].items())), flush=True)
    for metric in bench["end_to_end"]:
        xs = values[metric["name"]]
        med = statistics.median(xs)
        q = statistics.quantiles(xs, n=4)
        spread = (q[2] - q[0]) / med
        flag = "  <-- above bound/3" if spread > metric["bound"] / 3 else ""
        print("%-18s median %-14.6g spread %.4f  bound %.2f%s"
              % (metric["name"], med, spread, metric["bound"], flag))


if __name__ == "__main__":
    main()
