#!/usr/bin/env python3
"""The benchmark's own test: every workload at smoke size, in seconds.

    python3 perfbench/smoke_test.py

Runs each workload twice untraced, with two seeds, and twice traced
with one seed. Checks that every result is correct, that it names
exactly the metrics BENCHMARK.json lists for its mode, each finite and
with the declared unit, and that the deterministic counts repeat
exactly between the two runs. Exits non-zero on the first failure.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Figures that must repeat exactly: untraced, those of the fixed
# instance, whatever the seed; traced, the counts of one seed.
SEEDS = {0: (5, 6), 1: (5, 5)}
DETERMINISTIC = {
    0: ["congest_rounds", "lightness", "stretch_vs_bound"],
    1: ["engine.runs", "engine.rounds", "engine.messages", "engine.words", "engine.steps",
        "engine.skip_ratio", "ledger.native_rounds", "ledger.charged_rounds",
        "dist_mst.messages", "dist_mst.rounds", "euler_dist.messages", "euler_dist.rounds",
        "hub_sssp.messages", "hub_sssp.rounds", "bellman_ford.messages", "bellman_ford.rounds",
        "net.messages", "net.rounds", "artifact.bytes", "store.hit_rate", "store.loads",
        "store.evictions", "fleet.skipped", "fleet.checksum"],
}


def run(workload, trace, seed):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def fail(msg):
    sys.exit("smoke_test: FAIL: " + msg)


def check_result(workload, trace, result, declared):
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s: result keys %s" % (workload, sorted(result)))
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail("%s trace=%d: correct=%s attempted=%s failed=%s" % (
            workload, trace, result["correct"], result["attempted"], result["failed"]))
    metrics = result["metrics"]
    if list(metrics) != [m["name"] for m in declared]:
        fail("%s trace=%d: metric names differ from BENCHMARK.json" % (workload, trace))
    for m in declared:
        got = metrics[m["name"]]
        if not isinstance(got["value"], (int, float)) or not math.isfinite(got["value"]):
            fail("%s: %s is not a finite number: %r" % (workload, m["name"], got["value"]))
        if got["unit"] != m["unit"]:
            fail("%s: %s has unit %r, declared %r" % (workload, m["name"], got["unit"], m["unit"]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            first, second = (run(workload, trace, seed) for seed in SEEDS[trace])
            for result in (first, second):
                check_result(workload, trace, result, declared)
            for name in DETERMINISTIC[trace]:
                a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
                if a != b:
                    fail("%s: %s differs between runs: %r vs %r" % (workload, name, a, b))
            print("ok %s trace=%d" % (workload, trace), flush=True)


if __name__ == "__main__":
    main()
