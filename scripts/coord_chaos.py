#!/usr/bin/env python3
"""Coordinator chaos smoke: crash + stall workers, demand byte-identical reports.

Drives `ffaudit serve` with coordinator-spawned worker processes under
injected faults and checks the fault-tolerance acceptance bar end to end:

1. single-process reference: `ffaudit run` (canonical report + artifacts);
2. for each worker count in {1, 2, 4} over 4 shards, and for 2 workers over
   8 shards: `ffaudit serve --spawn-workers N` with 2 trial threads per
   worker, where worker 0 is SIGKILLed mid-shard (`kill-after-units=3`,
   leaving a torn record tail for the replacement to salvage) and worker 1
   — when there is one — stalls far past its lease (`delay-lease-ms=4000`,
   forcing an expiry and a re-issue).  The 8-shard serve gives each worker
   several leases of the one job, so most of its leases run on the
   prepared audit the worker kept from an earlier lease;
3. every serve run must exit 0, report byte-identical to step 1, artifacts
   byte-identical to step 1, and its summary line must prove the faults
   actually fired (a worker was lost and a replacement spawned) and that
   every duplicate completion verified byte-identical to the accepted
   record stream (multi-threaded workers must write the same bytes);
4. poison-unit quarantine: two workers under hostile-trial faults — one
   spins forever after its first checkpoint (heartbeats keep flowing, only
   the wall-clock watchdog catches it, exit 113) and one allocates without
   bound (caught by RLIMIT_AS, exit 114) — with `--max-failures 1`, so each
   death permanently fails its shard.  The address-space cap is a
   fault-free worker's measured VmPeak plus 128 MiB, so the hog reaches it
   in a few allocations, long before the watchdog's 600 ms.  serve must
   end the spinner with exit 113 and the hog with exit 114, quarantine the
   blamed units, finish the audit, exit 9, name the quarantined units, and
   still produce a report byte-identical to step 1 (the blamed units are
   benign: the faults lived in the workers, not the trials).

With --net the scenario changes to network chaos: the coordinator listens
on TCP (127.0.0.1, kernel-assigned port) and hands every spawned worker the
same wire-fault plan (`--worker-fault <k>=<spec>`), which fires in the
worker's own frame I/O — periodic frame drops, per-frame delay,
duplication, one corrupted frame per worker and one partition per worker
(a disconnect that redials only after `heal-ms`) — at the same worker
counts, with the same byte-identical acceptance bar.  The `worker done:`
line of every worker that ran a lease must show frames dropped and
duplicated, its one corrupted frame and its partition; the summary must
show severed connections coming back as session *resumes* and no lease
expired: `--lease-ms` outlives a partition plus one reply timeout (a
worker waits a quarter lease for any reply), so every holder is back
before its deadline.

Usage:  python3 scripts/coord_chaos.py --ffaudit build/ffaudit [--net]
Exits non-zero on the first violated expectation.
"""

import argparse
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

JOB_FLAGS = [
    "--workload", "gemm",
    "--passes", "table2",
    "--trials", "10",
    "--size-max", "6",
    "--max-transitions", "2000",
]

WORKER_COUNTS = [1, 2, 4]
# Address space the poison hog may take beyond a fault-free worker's peak:
# room for two more 64 MiB malloc arenas, and a few 16 MiB hog blocks.
HOG_HEADROOM = 128 << 20
# (workers, shards) of the crash + stall serves.
CRASH_STALL_SERVES = [(1, 4), (2, 4), (4, 4), (2, 8)]


def fail(message: str) -> None:
    print(f"coord_chaos: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def run(cmd, expect_rc=0, timeout=600) -> str:
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    print(f"$ {' '.join(str(c) for c in cmd)}")
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != expect_rc:
        fail(f"expected exit {expect_rc}, got {proc.returncode}")
    return proc.stdout + proc.stderr


def dir_bytes(path: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())} if path.exists() else {}


def summary_counts(output: str) -> dict:
    """Parses the `served N shard(s): ...` summary into named counters."""
    m = re.search(
        r"served (\d+) shard\(s\): (\d+) lease\(s\), (\d+) expiration\(s\), "
        r"(\d+) requeue\(s\), (\d+) hedge\(s\), (\d+) duplicate completion\(s\) "
        r"\((\d+) byte-verified\), (\d+) worker\(s\) seen, (\d+) lost, (\d+) spawned, "
        r"(\d+) quarantined unit\(s\), (\d+) split shard\(s\), "
        r"(\d+) session\(s\) resumed",
        output)
    if not m:
        fail("serve printed no summary line")
    keys = ("shards", "leases", "expirations", "requeues", "hedges",
            "duplicates", "verified", "seen", "lost", "spawned",
            "quarantined", "split", "resumed")
    return dict(zip(keys, (int(g) for g in m.groups())))


def worker_vm_peak(ffaudit: str, root: Path) -> int:
    """Peak address space (VmPeak, in bytes) of a fault-free worker.

    A serve that spawns no workers hands the whole poison job to one worker
    started here with the poison workers' threads and watchdog, and its
    /proc status is polled until it exits (VmPeak only grows).
    """
    sock = root / "peak.sock"
    serve = subprocess.Popen([ffaudit, "serve", *JOB_FLAGS,
                              "--shards", "4",
                              "--checkpoint-interval", "2",
                              "--records-dir", root / "records-peak",
                              "--socket", sock,
                              "--linger-ms", "0",
                              "--quiet"],
                             stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    worker = subprocess.Popen([ffaudit, "worker", "--socket", sock, "--id", "peak",
                               "--watchdog-ms", "600", "--quiet"],
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    peak_kb = 0
    while worker.poll() is None:
        try:
            with open(f"/proc/{worker.pid}/status") as status:
                for line in status:
                    if line.startswith("VmPeak:"):
                        peak_kb = max(peak_kb, int(line.split()[1]))
        except (OSError, ValueError):
            pass  # exited between the poll and the read
        time.sleep(0.002)
    if worker.returncode != 0 or serve.wait(timeout=60) != 0:
        fail(f"VmPeak probe: worker exited {worker.returncode}, serve {serve.returncode}")
    if peak_kb == 0:
        fail("VmPeak probe: no VmPeak read from the worker's /proc status")
    return peak_kb << 10


# The wire-fault plan every --net worker carries.  A worker that runs a
# lease offers at least five frames to open connections (hello, request,
# a beat of that lease, and after the partition a hello and the
# completion), so each class fires in each such worker: frame 2, its first
# lease-request, is duplicated; frame 3 is corrupted; frame 5 is dropped.
NET_FAULT = ("drop-frame-every-n=5,delay-frame-ms=5,duplicate-frame=2,"
             "corrupt-frame-byte=3,disconnect-after-units=3,heal-ms=1500")


def worker_lines(output: str) -> list:
    """Parses the workers' `worker done: ...` lines into named counters."""
    lines = re.findall(
        r"worker done: (\d+) shard\(s\) completed, (\d+) failed, .*?, "
        r"(\d+) frame\(s\) dropped, (\d+) duplicated, (\d+) corrupted"
        r"( \(disconnected by fault plan\))?",
        output)
    if not lines:
        fail("no worker printed a `worker done:` line")
    keys = ("completed", "failed", "dropped", "duplicated", "corrupted")
    return [{**dict(zip(keys, (int(g) for g in line[:5]))), "disconnected": bool(line[5])}
            for line in lines]


def net_chaos(ffaudit: str, root: Path, ref_report: Path, ref_artifacts: dict) -> None:
    """--net mode: a TCP coordinator whose workers all carry wire faults.

    Every network fault class at once — periodic frame loss, per-frame
    delay, duplication, one corrupted frame per worker (the receiver's CRC
    must turn it into a clean disconnect) and one partition per worker,
    healed after `heal-ms` — at worker counts {1, 2, 4}.  Each run must
    exit 0, prove via the workers' counters that every fault class fired
    and via the summary that broken connections were resumed with no lease
    expired, and produce a report and artifacts byte-identical to the
    single-process reference.
    """
    for n in WORKER_COUNTS:
        report = root / f"report-net{n}.json"
        art = root / f"art-net{n}"
        cmd = [ffaudit, "serve", *JOB_FLAGS,
               "--shards", "4",
               "--checkpoint-interval", "2",
               "--records-dir", root / f"records-net{n}",
               "--artifact-dir", art,
               "--out", report,
               "--spawn-workers", str(n),
               "--listen", "127.0.0.1:0",
               # The lease is the whole silence budget: it outlives the
               # 1500 ms partition plus one 2000 ms reply timeout, a
               # quarter lease (a dropped hello or report).
               "--lease-ms", "8000",
               "--linger-ms", "8000"]
        for k in range(n):
            cmd += ["--worker-fault", f"{k}={NET_FAULT}"]
        out = run(cmd, timeout=900)

        counts = summary_counts(out)
        workers = worker_lines(out)
        if len(workers) != n:
            fail(f"net n={n}: {len(workers)} `worker done:` line(s), wanted {n}")
        net = {k: sum(w[k] for w in workers) for k in ("dropped", "duplicated", "corrupted")}
        if counts["shards"] != 4:
            fail(f"net n={n}: merged {counts['shards']} shards, wanted 4")
        # Every fault class fires in every worker that ran a lease; the
        # one-shot ones exactly once.
        for w in workers:
            if w["completed"] + w["failed"] == 0:
                continue
            if w["dropped"] < 1 or w["duplicated"] < 1 or w["corrupted"] != 1:
                fail(f"net n={n}: a worker dropped {w['dropped']}, duplicated "
                     f"{w['duplicated']} and corrupted {w['corrupted']} frame(s); "
                     "wanted >= 1, >= 1 and exactly 1")
            if not w["disconnected"]:
                fail(f"net n={n}: a worker ran a lease but its partition never fired")
        if counts["resumed"] < 1:
            fail(f"net n={n}: no session resumed — severed connections were "
                 "not spliced back onto their leases")
        if counts["expirations"] != 0:
            fail(f"net n={n}: {counts['expirations']} lease(s) expired — a holder "
                 "stayed silent past --lease-ms")

        if report.read_bytes() != ref_report.read_bytes():
            fail(f"net n={n}: report differs from the single-process report")
        if dir_bytes(art) != ref_artifacts:
            fail(f"net n={n}: reproducer artifacts differ from the single-process ones")
        partitions = sum(w["disconnected"] for w in workers)
        print(f"coord_chaos: net n={n} byte-identical "
              f"({net['dropped']} dropped, {net['duplicated']} duplicated, "
              f"{net['corrupted']} corrupted, {partitions} partition(s), "
              f"{counts['resumed']} resumed, 0 expired)")

    print("coord_chaos: PASS (drop + delay + duplicate + corrupt + partition/heal "
          "over TCP at every worker count; reports byte-identical)")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--ffaudit", required=True, help="path to the ffaudit binary")
    parser.add_argument("--net", action="store_true",
                        help="network chaos instead: TCP transport, every worker "
                             "carrying deterministic wire faults")
    args = parser.parse_args()
    ffaudit = args.ffaudit

    with tempfile.TemporaryDirectory(prefix="coord_chaos_") as tmp:
        root = Path(tmp)
        ref_report, ref_art = root / "report-single.json", root / "art-single"

        # 1. Single-process reference.
        run([ffaudit, "run", *JOB_FLAGS, "--out", ref_report, "--artifact-dir", ref_art])
        ref_artifacts = dir_bytes(ref_art)
        if not ref_artifacts:
            fail("reference run produced no reproducer artifacts — chaos job lost its teeth")

        if args.net:
            net_chaos(ffaudit, root, ref_report, ref_artifacts)
            return

        # 2. Coordinated runs under faults, at several worker and shard
        #    counts.
        for n, shards in CRASH_STALL_SERVES:
            name = f"n={n}" if shards == 4 else f"n={n} shards={shards}"
            report = root / f"report-n{n}-s{shards}.json"
            art = root / f"art-n{n}-s{shards}"
            cmd = [ffaudit, "serve", *JOB_FLAGS,
                   "--shards", str(shards),
                   "--checkpoint-interval", "2",
                   "--records-dir", root / f"records-n{n}-s{shards}",
                   "--artifact-dir", art,
                   "--out", report,
                   "--spawn-workers", str(n),
                   # Multi-threaded workers: their record streams must still
                   # byte-verify against a duplicate's.
                   "--worker-threads", "2",
                   # Tight leases so the stall visibly expires one.
                   "--lease-ms", "1500",
                   "--linger-ms", "8000",
                   # Worker 0 dies by SIGKILL mid-shard, after its first
                   # durable checkpoint (interval 2, killed after 3 units).
                   "--worker-fault", "0=kill-after-units=3"]
            if n > 1:
                # Worker 1 stalls far past its lease before running.
                cmd += ["--worker-fault", "1=delay-lease-ms=4000"]
            out = run(cmd)

            counts = summary_counts(out)
            if counts["shards"] != shards:
                fail(f"{name}: merged {counts['shards']} shards, wanted {shards}")
            if counts["lost"] < 1:
                fail(f"{name}: no worker was lost — the kill fault never fired")
            if counts["spawned"] <= n:
                fail(f"{name}: {counts['spawned']} spawns for {n} workers — "
                     "the killed worker was never replaced")
            if n > 1 and counts["expirations"] < 1:
                fail(f"{name}: no lease expired — the stall fault never fired")
            if counts["quarantined"] != 0:
                fail(f"{name}: {counts['quarantined']} unit(s) quarantined in a "
                     "scenario whose faults are all recoverable")
            if counts["verified"] != counts["duplicates"]:
                fail(f"{name}: {counts['verified']} of {counts['duplicates']} duplicate "
                     "completion(s) byte-verified")

            # 3. The acceptance bar: bytes, not summaries.
            if report.read_bytes() != ref_report.read_bytes():
                fail(f"{name}: coordinated report differs from the single-process report")
            if dir_bytes(art) != ref_artifacts:
                fail(f"{name}: reproducer artifacts differ from the single-process ones")
            print(f"coord_chaos: {name} byte-identical "
                  f"({counts['lost']} worker(s) lost, {counts['spawned']} spawned, "
                  f"{counts['expirations']} expiration(s), {counts['duplicates']} "
                  f"duplicate(s) byte-verified)")

        # 4. Poison-unit quarantine: a spinner (watchdog, exit 113) and a
        #    memory hog (RLIMIT_AS, exit 114), each permanently failing its
        #    shard at --max-failures 1.  The audit must still finish — with
        #    the blamed units quarantined, exit code 9, and a report that is
        #    byte-identical to the single-process one (the faults live in
        #    the workers, so every blamed unit is benign under re-run).  A
        #    1 GiB cap took the hog longer than the watchdog to fill on a
        #    loaded host; a cap just above a worker's own peak does not.
        cap = worker_vm_peak(ffaudit, root) + HOG_HEADROOM
        report = root / "report-poison.json"
        art = root / "art-poison"
        out = run([ffaudit, "serve", *JOB_FLAGS,
                   "--shards", "4",
                   "--checkpoint-interval", "2",
                   "--records-dir", root / "records-poison",
                   "--artifact-dir", art,
                   "--out", report,
                   "--spawn-workers", "2",
                   "--lease-ms", "4000",
                   "--linger-ms", "8000",
                   "--max-failures", "1",
                   "--worker-watchdog-ms", "600",
                   "--worker-rlimit-as", str(cap),
                   "--worker-fault", "0=spin-after-units=1",
                   "--worker-fault", "1=hog-memory-after-units=1"],
                  expect_rc=9)
        counts = summary_counts(out)
        if counts["quarantined"] < 1:
            fail("poison: nothing was quarantined — the poison faults never fired")
        if counts["split"] < 1:
            fail("poison: no shard remainder was split and re-issued")
        if counts["lost"] < 2:
            fail(f"poison: only {counts['lost']} worker(s) lost — expected both "
                 "the spinner (watchdog) and the hog (rlimit) to die")
        # Each worker's first death is its fault's; respawns run clean.
        first_exit = {}
        for index, code in re.findall(r"worker w(\d+) pid \d+ terminated \(exit (\d+)", out):
            first_exit.setdefault(int(index), int(code))
        if first_exit.get(0) != 113:
            fail(f"poison: the spinner exited {first_exit.get(0)}, not 113 (watchdog)")
        if first_exit.get(1) != 114:
            fail(f"poison: the hog exited {first_exit.get(1)}, not 114 (address-space "
                 f"cap {cap} bytes)")
        if "quarantined units:" not in out:
            fail("poison: summary does not name the quarantined units")
        if report.read_bytes() != ref_report.read_bytes():
            fail("poison: quarantined report differs from the single-process report")
        if dir_bytes(art) != ref_artifacts:
            fail("poison: reproducer artifacts differ from the single-process ones")
        print(f"coord_chaos: poison byte-identical ({counts['quarantined']} unit(s) "
              f"quarantined, {counts['split']} split shard(s), spinner exit 113, hog exit "
              f"114 under a {cap >> 20} MiB cap, exit 9)")

    print("coord_chaos: PASS (crash + stall at every worker count and at 8 shards; "
          "poison units quarantined; reports byte-identical)")


if __name__ == "__main__":
    main()
