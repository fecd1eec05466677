#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see perfbench/NOTES.md).

    python3 perfbench/run.py --workload fleet-zipf --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The script builds perfbench/lnbench.exe
from source with dune, runs it on one workload and passes its output
through: the last line of stdout is the JSON result. Any build or run
failure exits non-zero without printing a result.
"""

import argparse
import glob
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("spanner-rmat", "geo-slt-doubling", "fleet-zipf")
RUN_TIMEOUT_S = 170


def find_dune():
    dune = shutil.which("dune")
    if dune:
        return dune
    switches = sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
    if switches:
        return switches[-1]
    sys.exit("perfbench: dune not found")


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        sys.exit("perfbench: no dune-project at the checkout root")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = [find_dune(), "build", "--root", ROOT, "./perfbench/lnbench.exe"]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(ROOT, "_build", "default", "perfbench", "lnbench.exe")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own test")
    args = ap.parse_args()
    exe = build()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit("perfbench: lnbench exited with %d" % proc.returncode)
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
