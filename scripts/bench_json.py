#!/usr/bin/env python3
"""Fold a bench's results into a BENCH_<name>.json baseline, gating on its bars.

Two baselines, one subcommand each:

hotpath   Folds bench_interp_hotpath's output into BENCH_hotpath.json.
          The bench prints machine-readable lines of the form

              BENCH_KV key=value [key=value ...]

          alongside its human-readable report; every pair lands in one flat
          JSON object.  Values parse as int, then float, then string.  Fails
          when the input holds no BENCH_KV line (the bench crashed before
          its report) or one of the 12 hot-path keys is missing.

              ./build/bench_interp_hotpath | \\
                  python3 scripts/bench_json.py hotpath - BENCH_hotpath.json

feedback  Measures feedback guidance with the `ffaudit` CLI over the tiling
          audit the feedback knobs are tuned for (docs/TUNING.md: 30 trials
          in 3 generations of 10 at size-max 96) and writes
          BENCH_feedback.json:
          * `guided_pairs_hit` / `unguided_pairs_hit` / `pairs_total` —
            def-use pairs covered by the guided (`--feedback`) and unguided
            (`--coverage` only) runs at the same trial budget, and the atlas
            size (which both runs must agree on);
          * `guidance_ratio` and the normalized `*_pairs_per_1k_trials`
            rates — the bar is guided >= 1.5x unguided, and since coverage
            is a pure function of the job the ratio is exact, so the bar
            gates CI;
          * `corpus_entries` / `corpus_generations` — corpus shape (entries
            in more than one generation prove mutation kept absorbing new
            coverage; fewer than 2 generations fails);
          * `coverage_off_seconds` / `unguided_seconds` / `guided_seconds`
            and `coverage_overhead_ratio` — wall-clock cost of
            instrumentation (informational: subprocess timing is noisy, so
            nothing gates on it; `bench_interp_hotpath` owns the <5%
            engine-level bar).

              python3 scripts/bench_json.py feedback BENCH_feedback.json \\
                  --ffaudit build/ffaudit

Every failed gate exits 1 without writing the baseline, so a silently empty,
non-deterministic or guidance-free baseline cannot pass CI.
"""

import argparse
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HOTPATH_KEYS = (
    "reference_exec_per_s",
    "generic_exec_per_s",
    "specialized_exec_per_s",
    "batched_exec_per_s",
    "specialization_speedup",
    "batched_speedup",
    "kernel_launches",
    "segment_launches",
    "flat_f64_batch_speedup",
    "flat_f32_batch_speedup",
    "nest_tiled_ratio",
    "stencil_kernel_speedup",
)

GENERATION_SIZE = 10
FEEDBACK_TRIALS = 30
FEEDBACK_JOB_FLAGS = [
    "--workload", "gemm",
    "--passes", "tiling",
    "--trials", str(FEEDBACK_TRIALS),
    "--size-max", "96",
    "--max-transitions", "2000",
]
GUIDANCE_BAR = 1.5


class GateFailed(Exception):
    """A bar or a completeness check of the baseline failed."""


def parse_value(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def collect(source: str) -> dict:
    """The BENCH_KV pairs of a bench output file (`-` = stdin)."""
    if source == "-":
        lines = sys.stdin.read().splitlines()
    else:
        lines = Path(source).read_text(encoding="utf-8").splitlines()
    data = {}
    for line in lines:
        if not line.startswith("BENCH_KV "):
            continue
        for pair in line[len("BENCH_KV "):].split():
            key, sep, value = pair.partition("=")
            if sep:
                data[key] = parse_value(value)
    return data


def require(data: dict, keys, what: str) -> None:
    missing = [key for key in keys if key not in data]
    if missing:
        raise GateFailed(f"missing {what}: {', '.join(missing)}")


def run(cmd) -> float:
    """Runs a subprocess (raising on failure); returns wall seconds."""
    t0 = time.monotonic()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return time.monotonic() - t0


def hotpath(args) -> dict:
    data = collect(args.bench_output)
    if not data:
        raise GateFailed("no BENCH_KV lines found in input")
    require(data, HOTPATH_KEYS, "keys in bench output")
    return data


def coverage_totals(report_path: Path) -> tuple[int, int]:
    reports = json.loads(report_path.read_text())["reports"]
    return (sum(r.get("pairs_hit", 0) for r in reports),
            sum(r.get("pairs_total", 0) for r in reports))


def corpus_shape(corpus_path: Path) -> tuple[int, int]:
    trials = []
    for line in corpus_path.read_text().splitlines():
        record = json.loads(line)
        if record.get("type") == "entry":
            trials.append(record["entry"]["trial"])
    return len(trials), len({t // GENERATION_SIZE for t in trials})


def feedback(args) -> dict:
    ffaudit = args.ffaudit
    data = {}
    with tempfile.TemporaryDirectory(prefix="bench_feedback_") as tmp:
        root = Path(tmp)
        plain, unguided, guided = (root / "plain.json", root / "unguided.json",
                                   root / "guided.json")
        corpus = root / "corpus.jsonl"

        data["coverage_off_seconds"] = round(
            run([ffaudit, "run", *FEEDBACK_JOB_FLAGS, "--out", str(plain)]), 3)
        data["unguided_seconds"] = round(
            run([ffaudit, "run", *FEEDBACK_JOB_FLAGS, "--coverage", "--out", str(unguided)]), 3)
        data["guided_seconds"] = round(
            run([ffaudit, "run", *FEEDBACK_JOB_FLAGS, "--feedback",
                 "--generation-size", str(GENERATION_SIZE),
                 "--out", str(guided), "--corpus-out", str(corpus)]), 3)
        if data["coverage_off_seconds"] > 0:
            data["coverage_overhead_ratio"] = round(
                data["unguided_seconds"] / data["coverage_off_seconds"], 3)

        unguided_hit, pairs_total = coverage_totals(unguided)
        guided_hit, guided_total = coverage_totals(guided)
        if pairs_total != guided_total:
            raise GateFailed("atlas size differs between runs "
                             f"({pairs_total} vs {guided_total})")
        data["pairs_total"] = pairs_total
        data["unguided_pairs_hit"] = unguided_hit
        data["guided_pairs_hit"] = guided_hit
        data["unguided_pairs_per_1k_trials"] = round(unguided_hit * 1000 / FEEDBACK_TRIALS, 1)
        data["guided_pairs_per_1k_trials"] = round(guided_hit * 1000 / FEEDBACK_TRIALS, 1)
        data["guidance_ratio"] = round(guided_hit / max(unguided_hit, 1), 3)
        data["corpus_entries"], data["corpus_generations"] = corpus_shape(corpus)

    if data["guidance_ratio"] < GUIDANCE_BAR:
        raise GateFailed(f"guidance ratio {data['guidance_ratio']} below the {GUIDANCE_BAR}x "
                         f"bar ({data['guided_pairs_hit']} vs {data['unguided_pairs_hit']} pairs)")
    if data["corpus_generations"] < 2:
        raise GateFailed("corpus never left generation 0 — "
                         "mutation is not absorbing new coverage")
    return data


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    baselines = parser.add_subparsers(dest="baseline", required=True)

    p = baselines.add_parser("hotpath", help="bench_interp_hotpath -> BENCH_hotpath.json")
    p.add_argument("bench_output", help="bench output file, or - for stdin")
    p.add_argument("json_out", help="baseline JSON to write")
    p.set_defaults(fold=hotpath)

    p = baselines.add_parser("feedback", help="ffaudit guidance runs -> BENCH_feedback.json")
    p.add_argument("json_out", help="baseline JSON to write")
    p.add_argument("--ffaudit", required=True, help="path to the ffaudit binary")
    p.set_defaults(fold=feedback)

    args = parser.parse_args()
    try:
        data = args.fold(args)
    except GateFailed as e:
        print(f"bench_json {args.baseline}: {e}", file=sys.stderr)
        return 1
    Path(args.json_out).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.json_out} ({len(data)} keys)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
