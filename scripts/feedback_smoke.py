#!/usr/bin/env python3
"""Feedback smoke test: guided audits over real ffaudit processes.

End-to-end enforcement of determinism-contract clause 10
(docs/ARCHITECTURE.md "Coverage-guided feedback") plus the guidance win:

1. single-process guided reference: `ffaudit run --feedback --corpus-out`
   at 1 worker (canonical report + corpus file);
2. the same job at 8 workers must reproduce both files byte-for-byte
   (the derivational generation barrier cannot depend on thread count);
3. `ffaudit plan` with 4 shards, shard 2 interrupted mid-run and resumed,
   then `ffaudit merge --corpus-out` must reproduce both files
   byte-for-byte (corpus gaps re-derived from the injected records);
4. the corpus must span more than one generation — i.e. mutated
   descendants of earlier entries themselves earned corpus slots, the
   signature of feedback actually steering (coverage strictly grows
   across generations);
5. a coverage-only (unguided) run of the same budget must hit strictly
   fewer def-use pairs than the guided run;
6. a feedback-off run's report must carry no coverage keys at all
   (conditional wire fields preserve historical bytes);
7. `ffaudit fsck` verifies the reference corpus (exit 0), and a copy with
   one flipped byte fails it (exit 6) naming the file and line.

Usage:  python3 scripts/feedback_smoke.py --ffaudit build/ffaudit
Exits non-zero on the first violated expectation.
"""

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

# The tiling audit of the bench config (docs/TUNING.md): 3 generations of
# 10 trials at a size range wide enough that region classes differ.
GENERATION_SIZE = 10
JOB_FLAGS = [
    "--workload", "gemm",
    "--passes", "tiling",
    "--trials", "30",
    "--size-max", "96",
    "--max-transitions", "2000",
]
GUIDED_FLAGS = [*JOB_FLAGS, "--feedback", "--generation-size", str(GENERATION_SIZE)]


def fail(message: str) -> None:
    print(f"feedback_smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def run(cmd, expect_rc=0) -> str:
    proc = subprocess.run(cmd, capture_output=True, text=True)
    print(f"$ {' '.join(str(c) for c in cmd)}")
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != expect_rc:
        fail(f"expected exit {expect_rc}, got {proc.returncode}")
    return proc.stdout + proc.stderr


def pairs_hit(report_path: Path) -> int:
    doc = json.loads(report_path.read_text())
    return sum(r.get("pairs_hit", 0) for r in doc["reports"])


def corpus_trials(corpus_path: Path):
    trials = []
    for line in corpus_path.read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record.get("type") == "entry":  # skip the header and trailer lines
            trials.append(record["entry"]["trial"])
    return trials


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--ffaudit", required=True, help="path to the ffaudit binary")
    args = parser.parse_args()
    ffaudit = args.ffaudit

    with tempfile.TemporaryDirectory(prefix="feedback_smoke_") as tmp:
        root = Path(tmp)
        ref_report, ref_corpus = root / "report-1t.json", root / "corpus-1t.jsonl"
        t8_report, t8_corpus = root / "report-8t.json", root / "corpus-8t.jsonl"

        # 1. Guided single-process reference at 1 worker.
        run([ffaudit, "run", *GUIDED_FLAGS, "--threads", "1",
             "--out", ref_report, "--corpus-out", ref_corpus])
        guided_pairs = pairs_hit(ref_report)
        if guided_pairs <= 0:
            fail("guided run reports no pairs hit — instrumentation is dead")

        # 2. Thread invariance: 8 workers, same bytes.
        run([ffaudit, "run", *GUIDED_FLAGS, "--threads", "8",
             "--out", t8_report, "--corpus-out", t8_corpus])
        if t8_report.read_bytes() != ref_report.read_bytes():
            fail("guided report differs between 1 and 8 workers")
        if t8_corpus.read_bytes() != ref_corpus.read_bytes():
            fail("corpus differs between 1 and 8 workers")

        # 3. Shard invariance: 4 shards, shard 2 interrupted + resumed,
        # merged report and corpus byte-identical to step 1.
        plan_dir, rec_dir = root / "plan", root / "rec"
        merged_report, merged_corpus = root / "report-merged.json", root / "corpus-merged.jsonl"
        run([ffaudit, "plan", *GUIDED_FLAGS, "--shards", "4",
             "--checkpoint-interval", "3", "--out-dir", plan_dir])
        for shard in (0, 1, 3):
            run([ffaudit, "run-shard", "--manifest", plan_dir / f"shard-{shard}.json",
                 "--records-dir", rec_dir, "--threads", "2"])
        run([ffaudit, "run-shard", "--manifest", plan_dir / "shard-2.json",
             "--records-dir", rec_dir, "--interrupt-after-units", "4"], expect_rc=3)
        out = run([ffaudit, "run-shard", "--manifest", plan_dir / "shard-2.json",
                   "--records-dir", rec_dir])
        if "resumed" not in out:
            fail("interrupted shard restarted from scratch instead of resuming")
        run([ffaudit, "merge", "--records-dir", rec_dir,
             "--out", merged_report, "--corpus-out", merged_corpus])
        if merged_report.read_bytes() != ref_report.read_bytes():
            fail("merged report differs from the single-process report")
        if merged_corpus.read_bytes() != ref_corpus.read_bytes():
            fail("merged corpus differs from the single-process corpus")

        # 4. Feedback actually steered: the corpus spans more than one
        # generation, so coverage kept growing after mutation kicked in.
        trials = corpus_trials(ref_corpus)
        if not trials:
            fail("corpus file holds no entries")
        generations = {t // GENERATION_SIZE for t in trials}
        if len(generations) < 2:
            fail(f"corpus entries all sit in one generation ({sorted(trials)}) — "
                 "coverage never grew under mutation")

        # 5. Guidance win: coverage-only (plain draws) at the same budget
        # must hit strictly fewer pairs.
        unguided_report = root / "report-unguided.json"
        run([ffaudit, "run", *JOB_FLAGS, "--coverage", "--threads", "1",
             "--out", unguided_report])
        unguided_pairs = pairs_hit(unguided_report)
        if guided_pairs <= unguided_pairs:
            fail(f"guided run hit {guided_pairs} pairs vs unguided {unguided_pairs} — "
                 "no guidance win")

        # 6. Feedback off: no coverage keys on the wire.
        plain_report = root / "report-plain.json"
        run([ffaudit, "run", *JOB_FLAGS, "--threads", "1", "--out", plain_report])
        doc = json.loads(plain_report.read_text())
        for r in doc["reports"]:
            for key in ("pairs_total", "pairs_hit", "corpus_size"):
                if key in r:
                    fail(f"feedback-off report leaks coverage key '{key}'")

        # 7. fsck reads corpus files: the reference verifies, one flipped
        # byte is found at its line.
        out = run([ffaudit, "fsck", "--records", ref_corpus])
        if "ok — corpus of" not in out:
            fail("fsck did not verify the reference corpus as a corpus")
        damaged = root / "corpus-damaged.jsonl"
        data = bytearray(ref_corpus.read_bytes())
        at = len(data) // 2
        while data[at] == ord("\n"):
            at += 1
        data[at] ^= 0x04
        damaged.write_bytes(bytes(data))
        out = run([ffaudit, "fsck", "--records", damaged], expect_rc=6)
        line = data[:at].count(b"\n") + 1
        if f"{damaged.name}: CORRUPT (integrity), line {line}:" not in out:
            fail(f"fsck did not name line {line} of the damaged corpus")

        print(f"feedback_smoke: PASS (guided {guided_pairs} vs unguided "
              f"{unguided_pairs} pairs; corpus of {len(trials)} entries across "
              f"{len(generations)} generations; 8-thread and 4-shard runs "
              "byte-identical; fsck verifies the corpus and finds a flipped byte)")


if __name__ == "__main__":
    main()
