#!/usr/bin/env python3
"""The repository's benchmark: time-to-verdict and trials/s of full audits.

    python3 ffbench/run.py --workload detect|sweep|guided|fleet \\
        --seed N --seconds S --trace 0|1 [--tiny] [--corrupt-report]

Run from the repository root.  The first run configures and builds the
library, `ffaudit` and the `ffbench` binary from source into $CARGO_TARGET_DIR
(default .bench_build).  `detect`, `sweep` and `guided` run in the ffbench binary;
`fleet` runs `ffaudit serve` jobs from here and compares their reports with
the ffbench binary's single-process reports.  The last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics, with
--trace 1 its per_layer metrics.  Any failed check makes the exit code 1.
ffbench/README.md explains the workloads.
"""
import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("detect", "sweep", "guided", "fleet")
# Heavy kernels of the correct pass set whose serves always linger (see
# README.md: 3mm and heat_3d sometimes skip the linger, which makes their
# serve time bimodal).
FLEET_KERNELS = ("doitgen", "mlp", "2mm")
BUILD_TYPE = "Release"
CXX_FLAGS = "-O2 -DNDEBUG"  # the repository's default optimisation, without -g
# Serve options of the fleet workload; everything else stays at the serve
# defaults (4 shards, verbose lease log, linger_ms 1000).
FLEET_SERVE = ["--spawn-workers", "2", "--worker-threads", "2"]
SERVE_SUMMARY = re.compile(
    r"served (\d+) shard\(s\): (\d+) lease\(s\), (\d+) expiration\(s\), (\d+) requeue\(s\), "
    r"(\d+) hedge\(s\), (\d+) duplicate completion")


def die(message):
    print("ffbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build(bdir):
    """Configures (once) and builds ffbench and ffaudit; returns their paths."""
    for needed in ("src/core/fuzzer.h", "tools/ffaudit.cpp", "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            die("repository file %s not found; run from a full checkout" % needed)
    cmake = os.path.join(bdir, "cmake")
    # The compiler's temporary files stay in the build directory too.
    os.environ["TMPDIR"] = os.path.join(bdir, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    with open(os.path.join(bdir, "build.log"), "a") as log:
        if not os.path.isfile(os.path.join(cmake, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", HERE, "-B", cmake, *generator,
                            "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE,
                            "-DCMAKE_CXX_FLAGS_RELEASE=" + CXX_FLAGS],
                           stdout=log, stderr=subprocess.STDOUT, check=True)
        subprocess.run(["cmake", "--build", cmake, "-j", "4"],
                       stdout=log, stderr=subprocess.STDOUT, check=True)
    return os.path.join(cmake, "ffbench"), os.path.join(cmake, "ffaudit")


def fingerprint(bdir, seed):
    """Host and build identity stamped on every output."""
    cache = {}
    with open(os.path.join(bdir, "cmake", "CMakeCache.txt")) as f:
        for line in f:
            key, _, value = line.rstrip("\n").partition("=")
            cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"], capture_output=True, text=True).stdout
    revision = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
        revision = git.stdout.strip() or None
    digest = hashlib.sha256()
    for top in ("src", "tools", "ffbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {
        "nproc": os.cpu_count(),
        "compiler": compiler,
        "compiler_version": version.splitlines()[0] if version else "unknown",
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "cxx_flags": " ".join(filter(None, [cache.get("CMAKE_CXX_FLAGS", ""),
                                            cache.get("CMAKE_CXX_FLAGS_RELEASE", "")])),
        "git_revision": revision,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def run_ffbench(ffbench, args):
    proc = subprocess.run([ffbench, *args], stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        die("ffbench %s failed with exit code %d" % (" ".join(args[:1]), proc.returncode))
    return json.loads(lines[-1])


def tail(samples):
    """Highest percentile with at least ten samples beyond it (the maximum
    when a run has fewer than 20 samples), and that percentile."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def flagged_wrong(report_text):
    """Flagged instances of transformations other than Vectorization."""
    wrong = 0
    for r in json.loads(report_text)["reports"]:
        if r["verdict"] not in ("pass", "uninteresting") and r["transformation"] != "Vectorization":
            wrong += 1
    return wrong


def serve_once(ffbench, ffaudit, rundir, kernel, args, traced):
    """One `ffaudit serve` audit of `kernel`; returns its measurements."""
    rec = os.path.join(rundir, "rec")
    shutil.rmtree(rec, ignore_errors=True)
    # ffbench's fleet-ref job uses sampler seed 1000 * --seed (its seed 0).
    cmd = [ffbench, "spawn", ffaudit, "serve", "--workload", kernel, "--passes", "correct",
           "--seed", str(args.seed * 1000),
           "--trials", "10" if args.tiny else "100", "--records-dir", "rec", *FLEET_SERVE,
           "--out", "rec/report.json"]
    out_path = os.path.join(rundir, "serve.out")
    events, rss_kb = {}, 0
    t0 = time.monotonic()
    with open(out_path, "w") as out:
        proc = subprocess.Popen(cmd, cwd=rundir, stdout=out, stderr=subprocess.PIPE, text=True)
        # Reading to EOF also waits for every spawned worker: they share
        # this pipe as their stderr.
        for line in proc.stderr:
            if line.startswith("[ffbench] spawn maxrss_kb"):
                rss_kb = int(line.split()[-1])
            if not traced:
                continue
            t = time.monotonic() - t0
            if line.startswith("[coord] leased shard"):
                events.setdefault("first_lease", t)
            elif line.startswith("[coord] all shards complete"):
                events["done"] = t
            elif line.startswith("[coord] audit finalized"):
                events["finalized"] = t
        proc.wait()
    wall = time.monotonic() - t0
    result = {"wall": wall, "exit": proc.returncode, "rss_mb": rss_kb / 1024.0,
              "events": events, "report": None}
    report_path = os.path.join(rec, "report.json")
    if proc.returncode == 0 and os.path.isfile(report_path):
        with open(report_path) as f:
            result["report"] = f.read()
    with open(out_path) as f:
        m = SERVE_SUMMARY.search(f.read())
    result["coord"] = [int(x) for x in m.groups()] if m else [0] * 6
    records = record_bytes = 0
    for name in os.listdir(rec) if os.path.isdir(rec) else []:
        if name.endswith(".jsonl"):
            path = os.path.join(rec, name)
            record_bytes += os.path.getsize(path)
            with open(path, "rb") as f:
                records += sum(1 for _ in f)
    result["records"], result["record_bytes"] = records, record_bytes
    return result


def run_fleet(ffbench, ffaudit, args, bdir, fp):
    rundir = os.path.join(bdir, "run-fleet")
    shutil.rmtree(rundir, ignore_errors=True)
    refdir = os.path.join(rundir, "ref")
    os.makedirs(refdir)
    start = time.monotonic()
    ref_args = ["fleet-ref", "--seed", str(args.seed), "--seconds", str(min(3.0, args.seconds / 5)),
                "--kernels", ",".join(FLEET_KERNELS), "--ref-dir", refdir, "--fingerprint", json.dumps(fp)]
    if args.tiny:
        ref_args.append("--tiny")
    if args.trace:
        ref_args += ["--trace", os.path.join(bdir, "trace-fleet-ref.jsonl")]
    ref = run_ffbench(ffbench, ref_args)
    references = {}
    for k in FLEET_KERNELS:
        with open(os.path.join(refdir, k + ".json")) as f:
            references[k] = f.read()

    attempted = failed = wrong = mismatches = 0
    passes, detect_trials, rss = [], None, 0.0
    layer_passes = []
    corrupted = False
    deadline = start + args.seconds
    # A traced run spends its first half (at least one pass) untraced, to
    # measure the tracing overhead, and then at least one pass traced.
    while True:
        now = time.monotonic()
        untraced_done = any(not p[1] for p in passes)
        if untraced_done and now >= deadline and (not args.trace or any(p[1] for p in passes)):
            break
        traced = bool(args.trace) and untraced_done and now >= start + args.seconds / 2
        pass_wall, pass_executed, pass_detect = 0.0, 0, 0
        layer = {"coord.serve_s": 0.0, "coord.first_lease_s": 0.0, "coord.linger_s": 0.0,
                 "coord.leases": 0, "coord.expirations": 0, "coord.requeues": 0, "coord.hedges": 0,
                 "coord.duplicates": 0, "shard.records": 0, "shard.record_bytes": 0}
        for k in FLEET_KERNELS:
            s = serve_once(ffbench, ffaudit, rundir, k, args, traced)
            attempted += 1
            pass_wall += s["wall"]
            rss = max(rss, s["rss_mb"])
            text = s["report"]
            if text is None:
                print("ffbench: serve of %s exited %d" % (k, s["exit"]), file=sys.stderr)
                failed += 1
                continue
            if args.corrupt_report and not corrupted:
                text = text[:len(text) // 2] + chr(ord(text[len(text) // 2]) ^ 1) + text[len(text) // 2 + 1:]
                corrupted = True
            bad = flagged_wrong(text)
            mismatch = text != references[k]
            wrong += bad
            mismatches += int(mismatch)
            failed += int(bad > 0 or mismatch)
            for r in json.loads(text)["reports"]:
                pass_executed += r["trials"] + r["uninteresting"]
                if r["verdict"] not in ("pass", "uninteresting"):
                    pass_detect += r["trials"]
            ev = s["events"]
            layer["coord.serve_s"] += s["wall"]
            layer["coord.first_lease_s"] += ev.get("first_lease", 0.0)
            layer["coord.linger_s"] += ev.get("finalized", 0.0) - ev.get("done", 0.0)
            for name, value in zip(("coord.leases", "coord.expirations", "coord.requeues",
                                    "coord.hedges", "coord.duplicates"), s["coord"][1:]):
                layer[name] += value
            layer["shard.records"] += s["records"]
            layer["shard.record_bytes"] += s["record_bytes"]
        passes.append((pass_wall, traced, pass_executed))
        detect_trials = pass_detect if detect_trials is None else detect_trials
        if traced:
            layer_passes.append(layer)
    shutil.rmtree(os.path.join(rundir, "rec"), ignore_errors=True)

    untraced = [p for p in passes if not p[1]] or passes
    raw = {
        "setup_s": ref["setup_s"], "samples": [p[0] for p in untraced],
        "executed": [p[2] for p in untraced], "detect_trials": detect_trials, "pairs_hit": 0,
        "peak_rss_mb": rss, "attempted": attempted + ref["attempted"],
        "failed": failed + ref["failed"], "wrong_verdicts": wrong + ref["wrong_verdicts"],
        "report_mismatches": mismatches + ref["report_mismatches"],
        "instances_per_pass": ref["instances_per_pass"],
    }
    if args.trace:
        traced_walls = [p[0] for p in passes if p[1]]
        fleet_pass = statistics.median(raw["samples"])
        inproc_pass = statistics.median(ref["samples"])
        layers = {name: statistics.median(p[name] for p in layer_passes) for name in layer_passes[0]}
        layers.update({k: v for k, v in ref["layers"].items() if k != "shares"})
        layers["shard.plan_s"] = ref["plan_s"]
        layers["coord.overhead_s"] = fleet_pass - inproc_pass
        # The in-process shares of the same jobs, scaled to the fleet's wall
        # clock; the rest is coordination.
        scale = inproc_pass / fleet_pass
        shares = {k: v * scale for k, v in ref["layers"]["shares"].items()}
        shares["coord"] = 1.0 - scale
        layers["shares"] = shares
        layers["traced_wall_s"] = statistics.median(traced_walls)
        layers["traced_passes"] = len(traced_walls)
        raw["layers"] = layers
        with open(os.path.join(bdir, "trace-fleet.jsonl"), "w") as f:
            f.write(json.dumps(fp) + "\n")
            for p in layer_passes:
                f.write(json.dumps(p) + "\n")
    return raw


def result_line(raw, args, spec):
    """The benchmark's result object from the raw measurements."""
    samples = raw["samples"]
    tail_value, tail_pct = tail(samples)
    verdict = statistics.median(samples)
    values = {
        "setup_s": raw["setup_s"],
        "verdict_s": verdict,
        "verdict_tail_s": tail_value,
        "trials_per_s": statistics.median(e / s for e, s in zip(raw["executed"], samples)),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    checks = {
        "wrong_verdicts": raw["wrong_verdicts"],
        "report_mismatches": raw["report_mismatches"],
        "failed_share": raw["failed"] / raw["attempted"],
    }
    print("workload %s seed %d: %d passes, verdict_s median %.4f, p%.0f %.4f; "
          "%d instances per pass" % (args.workload, args.seed, len(samples), verdict, tail_pct,
                                    tail_value, raw["instances_per_pass"]))
    print("checks: " + json.dumps(checks))
    if args.trace:
        layers = dict(raw["layers"])
        shares = layers.pop("shares")
        intended = {"detect": ("prepare",), "sweep": ("trial", "interp"), "guided": ("feedback",),
                    "fleet": ("coord",)}[args.workload]
        layered = {k: shares.get(k, 0.0) for k in ("prepare", "trial", "interp", "feedback", "coord")}
        largest = max(layered, key=layered.get)
        print("shares: " + json.dumps({k: round(v, 4) for k, v in shares.items()}) +
              " largest=%s intended=%s" % (largest, "/".join(intended)))
        values["trace.wall_s"] = layers.pop("traced_wall_s")
        layers.pop("traced_passes")
        values.update(layers)
        if args.workload != "fleet":
            # Only the fleet workload runs shard planning and a coordinator.
            for m in spec["per_layer"]:
                if m["name"].startswith(("shard.", "coord.")):
                    values[m["name"]] = 0
        for name in ("prepare", "trial", "interp", "feedback", "coord", "unattributed"):
            values["share." + name] = shares.get(name, 0.0)
        values["trace.intended_largest"] = 1 if largest in intended else 0
        values["trace.overhead_s"] = values["trace.wall_s"] - verdict
        values["run.passes"] = len(samples)
        values["core.detect_trials"] = raw["detect_trials"]
        for name, value in checks.items():
            values["check." + name] = value
        wanted = spec["per_layer"]
    else:
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            die("metric %s was not measured" % m["name"])
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    correct = raw["failed"] == 0 and raw["wrong_verdicts"] == 0 and raw["report_mismatches"] == 0
    return {"correct": correct, "attempted": raw["attempted"], "failed": raw["failed"],
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test size: 6 kernels, 10 trials per instance")
    parser.add_argument("--corrupt-report", action="store_true",
                        help="flip one byte of one report before comparing (self-test)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bdir = build_dir()
    try:
        ffbench, ffaudit = build(bdir)
    except (OSError, subprocess.CalledProcessError) as e:
        die("build failed (%s); see %s" % (e, os.path.join(bdir, "build.log")))
    fp = fingerprint(bdir, args.seed)
    print("fingerprint: " + json.dumps(fp, sort_keys=True))

    if args.workload == "fleet":
        raw = run_fleet(ffbench, ffaudit, args, bdir, fp)
    else:
        bench_args = [args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--fingerprint", json.dumps(fp)]
        if args.tiny:
            bench_args.append("--tiny")
        if args.corrupt_report:
            bench_args.append("--corrupt-report")
        if args.trace:
            bench_args += ["--trace", os.path.join(bdir, "trace-%s.jsonl" % args.workload)]
        raw = run_ffbench(ffbench, bench_args)
    result = result_line(raw, args, spec)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
