// Deterministic fault injection for the coordinator's workers.
//
// A FaultPlan is carried by a worker and fired at exact, reproducible
// points of its execution — kills land after a fixed number of units via
// the runner's interrupt_after_units hook (so the torn record tail is the
// same every run), stalls are fixed sleeps before the first leased shard,
// and wire faults fire at fixed ordinals of the frames the worker writes.
// The same plans drive the in-process E2E tests (tests/test_coord.cpp,
// where "crash" means silently abandoning the lease, since a thread cannot
// SIGKILL itself without taking the test down) and the CI chaos jobs
// (scripts/coord_chaos.py, where kill-after-units raises a real SIGKILL
// mid-shard and --net hands every worker a wire-fault plan).
#pragma once

/// \file
/// FaultPlan: parseable, deterministic worker and wire fault injection.

#include <cstdint>
#include <string>

namespace ff::coord {

/// What a worker sabotages, and when.  One-shot faults arm on the first
/// lease the worker receives and fire once; drop-heartbeats and the frame
/// faults are persistent.
///
/// Frame faults act at the worker's one send/receive point
/// (coord/worker.cpp).  Ordinals are 1-based and count every frame the
/// worker offers an open connection over its lifetime, across reconnects,
/// hello included — so where a fault lands depends on this worker's own
/// traffic only, and a frame refused by a closed connection takes none.
struct FaultPlan {
    /// SIGKILL the worker process after this many units of its first
    /// leased shard (torn write included, exactly like an OOM kill).
    /// < 0 = disabled.  Process workers only — see `abandon_after_units`
    /// for the in-process equivalent.
    std::int64_t kill_after_units = -1;

    /// Silently abandon the first leased shard after this many units: stop
    /// executing, close the socket without a word, send nothing further
    /// for that lease.  From the coordinator's seat this is
    /// indistinguishable from a crash (EOF + silence + a torn file).
    /// < 0 = disabled.
    std::int64_t abandon_after_units = -1;

    /// Spin forever (inside the runner's progress hook, so heartbeats keep
    /// flowing) after this many units of the first leased shard — a poison
    /// unit that stalls the worker without ever missing a heartbeat.  Only
    /// the wall-clock watchdog can catch it (worker exit code 113).
    /// < 0 = disabled.
    std::int64_t spin_after_units = -1;

    /// Allocate memory without bound after this many units of the first
    /// leased shard — a poison unit with a hostile footprint.  Under an
    /// --rlimit-as cap the allocation fails and the worker dies with exit
    /// code 114.  < 0 = disabled.
    std::int64_t hog_memory_after_units = -1;

    /// Close the coordinator connection after this many units of the first
    /// leased shard — but *keep executing*.  The worker's heartbeat path
    /// notices the dead socket, reconnects with the same session id and
    /// resumes beating the same attempt: the deterministic driver of
    /// session resume (the lease must outlive the broken connection, not
    /// be re-issued).  < 0 = disabled.
    std::int64_t disconnect_after_units = -1;

    /// With disconnect_after_units: a partition.  The worker refuses to
    /// redial for this long after the disconnect, then resumes its session.
    /// 0 = redial at once.
    double heal_ms = 0.0;

    /// Never send heartbeats, so every lease this worker holds expires
    /// even while it keeps (slowly, from the coordinator's view) working.
    bool drop_heartbeats = false;

    /// Sleep this long before starting the first leased shard — a
    /// straggler that outlives its lease.  0 = disabled.
    double delay_lease_ms = 0.0;

    /// Skip writing frames N, 2N, ...  0 = disabled.  N == 1 would drop
    /// every hello and wedge the handshake forever, so parse() rejects it.
    std::int64_t drop_frame_every_n = 0;

    /// Sleep this long before each frame written and after each frame
    /// read — bounded latency, not loss.  0 = disabled.
    double delay_frame_ms = 0.0;

    /// Write frames N, 2N, ... twice.  0 = disabled.
    std::int64_t duplicate_frame_every_n = 0;

    /// One-shot: flip one payload byte of frame N (or of the first frame
    /// written after it, should N be dropped), after its CRC is computed,
    /// so the receiver's frame check classifies it as a disconnect.
    /// 0 = disabled.
    std::int64_t corrupt_frame_byte = 0;

    /// True when any frame fault is configured.
    bool frame_faults() const {
        return drop_frame_every_n > 0 || delay_frame_ms > 0.0 || duplicate_frame_every_n > 0 ||
               corrupt_frame_byte > 0;
    }

    /// True when no fault is configured.
    bool empty() const {
        return kill_after_units < 0 && abandon_after_units < 0 && spin_after_units < 0 &&
               hog_memory_after_units < 0 && disconnect_after_units < 0 &&
               !drop_heartbeats && delay_lease_ms <= 0.0 && !frame_faults();
    }

    /// Parses a comma-separated spec, e.g.
    /// "kill-after-units=3,drop-heartbeats" or
    /// "drop-frame-every-n=7,disconnect-after-units=3,heal-ms=1500".
    /// Keys: kill-after-units, abandon-after-units, spin-after-units,
    /// hog-memory-after-units, disconnect-after-units, heal-ms,
    /// drop-heartbeats, delay-lease-ms, drop-frame-every-n, delay-frame-ms,
    /// duplicate-frame, corrupt-frame-byte.  Empty spec = no faults.
    /// Throws common::Error on unknown keys, malformed values,
    /// drop-frame-every-n=1, or heal-ms without disconnect-after-units.
    static FaultPlan parse(const std::string& spec);

    /// Human-readable summary ("none" when empty) for logs.
    std::string describe() const;
};

}  // namespace ff::coord
