// Deterministic fault injection for the coordinator's workers.
//
// A FaultPlan is carried by a worker and fired at exact, reproducible
// points of its execution — kills land after a fixed number of units via
// the runner's interrupt_after_units hook (so the torn record tail is the
// same every run), stalls are fixed sleeps before the first leased shard.
// The same plans drive the in-process E2E tests (tests/test_coord.cpp,
// where "crash" means silently abandoning the lease, since a thread cannot
// SIGKILL itself without taking the test down) and the CI chaos job
// (scripts/coord_chaos.py, where kill-after-units raises a real SIGKILL
// mid-shard).
#pragma once

/// \file
/// FaultPlan: parseable, deterministic worker fault injection, and the
/// spec tokenizer it shares with NetFaultPlan.

#include <cstdint>
#include <string>
#include <vector>

namespace ff::coord {

/// One `key[=value]` token of a comma-separated fault spec — the grammar
/// both fault dialects (FaultPlan, NetFaultPlan) share.  Errors start with
/// the dialect's name, e.g. "fault plan: kill-after-units=soon: expected an
/// integer".
struct FaultToken {
    std::string dialect;     ///< Error prefix ("fault plan", "net fault plan").
    std::string text;        ///< The whole token.
    std::string key;         ///< Up to the first '='.
    std::string value;       ///< After the first '=' ("" without one).
    bool has_value = false;  ///< Whether the token has an '='.

    /// The value as an integer; throws common::Error unless it is one.
    std::int64_t i64() const;
    /// The value as a number; throws common::Error unless it is one.
    double f64() const;
    /// Throws common::Error naming this token as unknown; `expected` lists
    /// the dialect's tokens.
    [[noreturn]] void reject(const std::string& expected) const;
};

/// The non-empty comma-separated tokens of `spec`, in order.
std::vector<FaultToken> fault_tokens(const std::string& spec, const std::string& dialect);

/// What a worker sabotages, and when.  One-shot faults arm on the first
/// lease the worker receives and fire once; drop-heartbeats is persistent.
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
    /// resumes beating the same attempt: the deterministic driver of the
    /// coordinator's session-resume machinery (the lease must be parked,
    /// not re-issued).  < 0 = disabled.
    std::int64_t disconnect_after_units = -1;

    /// Never send heartbeats, so every lease this worker holds expires
    /// even while it keeps (slowly, from the coordinator's view) working.
    bool drop_heartbeats = false;

    /// Sleep this long before starting the first leased shard — a
    /// straggler that outlives its lease.  0 = disabled.
    double delay_lease_ms = 0.0;

    /// True when no fault is configured.
    bool empty() const {
        return kill_after_units < 0 && abandon_after_units < 0 && spin_after_units < 0 &&
               hog_memory_after_units < 0 && disconnect_after_units < 0 &&
               !drop_heartbeats && delay_lease_ms <= 0.0;
    }

    /// Parses a comma-separated spec, e.g.
    /// "kill-after-units=3,drop-heartbeats" or "delay-lease-ms=500".
    /// Keys: kill-after-units, abandon-after-units, spin-after-units,
    /// hog-memory-after-units, disconnect-after-units, drop-heartbeats,
    /// delay-lease-ms.  Empty spec = no faults.  Throws common::Error on
    /// unknown keys or malformed values.
    static FaultPlan parse(const std::string& spec);

    /// Human-readable summary ("none" when empty) for logs.
    std::string describe() const;
};

}  // namespace ff::coord
