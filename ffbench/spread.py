#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 ffbench/spread.py --workloads detect,fleet --seeds 1,2,3,4,5

Runs the benchmark once per (workload, seed) with --trace 0 and prints, per
metric, the median, the quartile spread as a share of the median
(statistics.quantiles(values, n=4)) and the metric's bound from
BENCHMARK.json.  Also checks that every run's checks held.
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
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default="detect,sweep,guided,fleet")
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in args.seeds.split(","):
            proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                                   "--seed", seed, "--seconds", str(seconds), "--trace", "0"],
                                  cwd=ROOT, stdout=subprocess.PIPE, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"] or result["failed"]:
                print("%s seed %s: checks failed (exit %d)" % (workload, seed, proc.returncode))
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / statistics.median(v)
            print("%-8s %-16s median %-12.6g spread %.4f bound %.2f%s  %s" % (
                workload, m["name"], statistics.median(v), spread, m["bound"],
                "" if spread < m["bound"] / 3 or m["name"] == "setup_s" else "  <-- above bound/3",
                " ".join("%.4g" % x for x in v)))
        sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
