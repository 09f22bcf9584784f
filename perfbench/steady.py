#!/usr/bin/env python3
"""Steadiness of the benchmark: run one workload N times and report spread.

    python3 perfbench/steady.py --workload sync-s12 --runs 10 [--first-seed 1]

Each run is `perfbench/run.py --workload W --seed <s> --seconds <run_seconds>
--trace 0` with seeds first-seed, first-seed+1, ...  For every end-to-end
metric it prints the median, the quartiles (statistics.quantiles, n=4), the
interquartile range as a share of the median, and that share as a fraction
of the metric's bound in BENCHMARK.json.  A benchmark is steady when every
metric except setup_s stays under a third of its bound.  It also prints the
failed share of attempted operations of every run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    a = ap.parse_args()

    values = {m["name"]: [] for m in bench["end_to_end"]}
    shares = []
    for i in range(a.runs):
        seed = a.first_seed + i
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             a.workload, "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
             "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.stdout.write(proc.stdout)
            print("run with seed %d failed (exit %d)" % (seed, proc.returncode))
            return 1
        result = json.loads(proc.stdout.strip().split("\n")[-1])
        if not result["correct"]:
            sys.stdout.write(proc.stdout)
            print("run with seed %d reported incorrect output" % seed)
            return 1
        shares.append(result["failed"] / result["attempted"])
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.5g" % (n, v[-1]) for n, v in values.items())), flush=True)

    print("\n%s, %d runs of %d s, failed share %s"
          % (a.workload, a.runs, bench["run_seconds"], sorted(set(shares))))
    print("%-22s %12s %12s %12s %9s %7s %9s"
          % ("metric", "median", "q1", "q3", "iqr/med", "bound", "of bound"))
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med
        print("%-22s %12.6g %12.6g %12.6g %8.2f%% %7.2f %8.0f%%"
              % (m["name"], med, q1, q3, 100 * spread, m["bound"],
                 100 * spread / m["bound"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
