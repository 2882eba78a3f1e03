#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size (6 kernels, 10 trials).

    python3 ffbench/selftest.py

Checks that
  * every workload (BENCHMARK.json's and detect) prints every metric
    BENCHMARK.json names, with its unit, in both trace modes, and that its
    checks hold;
  * exact counts (core.detect_trials, feedback.pairs_hit) repeat on a seed;
  * one deliberately corrupted report byte raises report_mismatches to 1
    and fails the run, in-process and on the fleet;
  * in a directory holding only BENCHMARK.json and ffbench/, the benchmark
    exits non-zero without printing a result.
Exits non-zero on the first failed check.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = "101"


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "ffbench", "run.py"), "--workload", workload,
           "--seed", SEED, "--seconds", "2", "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=180)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result


def check(condition, message):
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    # detect is not in BENCHMARK.json (README.md says why) but keeps its
    # Table 2 check here.
    for name in [w["name"] for w in spec["workloads"]] + ["detect"]:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, result = run(name, trace, "--tiny")
            check(code == 0 and result is not None and result["correct"] and result["failed"] == 0,
                  "%s --trace %d: exit 0, checks hold" % (name, trace))
            metrics = result["metrics"]
            missing = [m["name"] for m in wanted
                       if m["name"] not in metrics or metrics[m["name"]]["unit"] != m["unit"]
                       or not isinstance(metrics[m["name"]]["value"], (int, float))]
            check(not missing and set(metrics) == {m["name"] for m in wanted},
                  "%s --trace %d: all %d metrics with units %s" % (
                      name, trace, len(wanted), missing or ""))
            if trace == 0:
                zero = [m["name"] for m in wanted if metrics[m["name"]]["value"] <= 0]
                check(not zero, "%s: end-to-end metrics are positive %s" % (name, zero or ""))

    counts = ("core.detect_trials", "feedback.pairs_hit")
    first = run("guided", 1, "--tiny")[1]["metrics"]
    second = run("guided", 1, "--tiny")[1]["metrics"]
    check(all(first[c]["value"] == second[c]["value"] for c in counts) and
          first["feedback.pairs_hit"]["value"] > 0,
          "guided: %s repeat exactly on one seed" % ", ".join(counts))

    for workload in ("sweep", "fleet"):
        code, result = run(workload, 1, "--tiny", "--corrupt-report")
        check(code != 0 and result is not None and not result["correct"] and
              result["metrics"]["check.report_mismatches"]["value"] == 1,
              "%s: one corrupted report byte gives report_mismatches 1 and a failed run" % workload)

    bare = os.path.join(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"),
                        "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "ffbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    code, result = run("sweep", 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    check(code != 0 and result is None, "bare directory: non-zero exit, no result")


if __name__ == "__main__":
    main()
