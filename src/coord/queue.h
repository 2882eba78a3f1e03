// The lease queue: the coordinator's fault-tolerance state machine.
//
// Every shard of the plan moves through Pending -> Leased -> Done (or
// Failed after too many losses).  A *lease* hands one shard to one worker
// for a bounded time; heartbeats extend the deadline, silence expires it
// and puts the shard back in the queue behind an exponential backoff.  The
// deadline is the only clock a lease is judged by: a holder whose
// connection breaks keeps its attempts, and one that reconnects and beats
// again before the deadline keeps the lease (session resume), whatever
// became of the socket in between.
// Near the end of an audit the queue duplicate-issues long-running leases
// ("straggler hedging"): a second attempt races the first, the first
// completion wins, and the loser's record file is byte-verified against
// the winner's — re-execution is safe *because* the record streams are
// deterministic (docs/ARCHITECTURE.md, contract clauses 6-7), so hedging
// costs only wasted work, never correctness.
//
// The lease is the fleet's one clock: LeaseConfig derives every timing.
//
// The queue itself never reads a clock or sleeps: every method takes the
// caller's `now`, and next_event_ms() tells the caller how long it may
// sleep before something (a deadline, a backoff expiry, a straggler
// becoming hedgeable) needs attention.  Unit tests drive it with a fake
// clock and assert the exact transition sequence; the coordinator's event
// loop feeds it std::chrono::steady_clock.
#pragma once

/// \file
/// LeaseQueue: leases with deadlines, heartbeat extension, backoff
/// re-issue, retry caps and straggler duplicate-issue — with injected time.

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "shard/manifest.h"

namespace ff::coord {

using TimePoint = std::chrono::steady_clock::time_point;

/// The lease state machine's two settings (docs/TUNING.md "Coordinator"),
/// and every timing of the fleet, derived from the lease.
struct LeaseConfig {
    /// Lease duration: a worker that neither heartbeats nor completes for
    /// this long forfeits the shard.
    double lease_ms = 10000.0;
    /// Failed/expired attempts a shard tolerates before it is declared
    /// permanently Failed (and quarantined).
    int max_failures = 5;

    /// Heartbeat interval the coordinator advertises in `welcome` and
    /// `lease` frames, which a worker also waits for any reply before it
    /// redials: a quarter lease, so neither one lost beat nor one
    /// unanswered frame costs a healthy holder its lease.
    double heartbeat_ms() const { return lease_ms / 4.0; }
    /// Delay before a shard lost `losses` times is grantable again: 200 ms,
    /// doubling per loss, at most one lease.
    double reissue_delay_ms(int losses) const;
    /// Age of a lease's newest attempt at which an idle worker may hedge
    /// it: three leases.  At most two attempts of a shard run at once.
    double hedge_age_ms() const { return 3.0 * lease_ms; }
};

/// Lifecycle of one shard in the queue.
enum class ShardState {
    Pending,  ///< Waiting to be (re-)granted.
    Leased,   ///< At least one attempt is out.
    Done,     ///< A completion was accepted; terminal.
    Failed,   ///< Retry cap exhausted; terminal unless a zombie completes.
};

/// One granted lease.
struct Lease {
    int shard = 0;    ///< Shard index into the plan.
    int attempt = 0;  ///< Unique per shard, monotonically increasing.
    bool hedge = false;  ///< True for a straggler duplicate-issue.
    shard::ShardManifest manifest;  ///< The work itself.
};

/// Monotonic counters of queue activity (surfaced in CoordStats).
struct LeaseQueueStats {
    std::int64_t granted = 0;       ///< Leases handed out (incl. hedges).
    std::int64_t hedges = 0;        ///< Straggler duplicate-issues.
    std::int64_t expirations = 0;   ///< Attempts lost to a missed deadline.
    std::int64_t worker_failures = 0;  ///< Attempts lost to a reported error.
    std::int64_t requeues = 0;      ///< Shard returns to Pending (with backoff).
    std::int64_t completions = 0;   ///< First completions accepted.
    /// Completions of a Done shard by another attempt than the winner
    /// (losing hedges and zombies).
    std::int64_t duplicate_completions = 0;
    int shards_failed = 0;          ///< Shards that hit the retry cap.
};

/// See the file comment.  Single-threaded; the coordinator's event loop is
/// the only caller.
class LeaseQueue {
public:
    LeaseQueue(std::vector<shard::ShardManifest> shards, const LeaseConfig& config);

    /// Grants the lowest-index grantable shard: a Pending shard whose
    /// backoff has elapsed, else a hedge on the oldest-newest-attempt
    /// Leased shard that qualifies (see LeaseConfig::hedge_age_ms).
    /// nullopt when nothing is grantable right now.
    std::optional<Lease> acquire(const std::string& worker, TimePoint now);

    /// Extends the attempt's deadline.  Returns false (a no-op) for stale
    /// attempts — the worker may keep running; its completion can still
    /// win or byte-verify.
    bool heartbeat(int shard, int attempt, TimePoint now);

    /// Reports a completion.  Returns true for the first completion of the
    /// shard (caller folds the records; `attempt` becomes the winner) and
    /// false for a later one — a duplicate to byte-verify against the
    /// winner's file, unless it repeats the winner itself.  A completion is
    /// accepted in ANY state — even Failed: a zombie worker finishing after
    /// the retry cap still rescues the shard.  `attempt` -1 resolves the
    /// shard without a winning attempt (quarantine).
    bool complete(int shard, int attempt);

    /// The attempt whose completion was accepted; nullopt while the shard
    /// is not Done, or when it was resolved without one.  A `complete` of
    /// the winner again (a duplicated frame, or a report re-sent after its
    /// ack was lost) has nothing left to fold or to verify.
    std::optional<int> winner(int shard) const;

    /// Reports a worker-side execution failure of an attempt; the shard is
    /// requeued behind backoff or declared Failed at the cap.
    void fail(int shard, int attempt, TimePoint now, const std::string& error);

    /// Resets every active attempt's deadline to now + lease_ms.  Called
    /// after the event loop was blocked (a quarantine re-run executes trials
    /// in the coordinator's own thread): workers kept heartbeating into an
    /// unread socket, so expiring their leases for the coordinator's own
    /// absence would be wrong — and at a tight max_failures it would cascade
    /// healthy shards into quarantine.
    void extend_active(TimePoint now);

    /// Appends a fresh Pending shard mid-run and returns its index — the
    /// coordinator's quarantine path re-issues the unfinished remainder of
    /// a permanently Failed shard as new (smaller) shards.  The new shard
    /// starts with a clean failure count and no backoff gate.
    int add_shard(const shard::ShardManifest& manifest);

    /// An attempt lost to expiry or to its holder's death.
    struct LostAttempt {
        int shard = 0;
        int attempt = 0;
        std::string worker;
    };

    /// Drops every attempt whose deadline has passed; call once per event-
    /// loop tick.  Returns what expired (for logging).
    std::vector<LostAttempt> expire(TimePoint now);

    /// Drops every attempt held by `worker` (its process is gone).  The
    /// shards are requeued immediately — a dead process is a fact, not a
    /// timeout, so no need to wait out the lease.
    std::vector<LostAttempt> worker_lost(const std::string& worker, TimePoint now);

    bool all_done() const;  ///< Every shard Done.
    ShardState state(int shard) const;
    /// Last error/expiry note recorded for the shard ("" when none).
    const std::string& last_error(int shard) const;
    int shard_count() const { return static_cast<int>(shards_.size()); }
    /// Attempts issued for the shard so far (the next attempt id).
    int attempts_issued(int shard) const;
    /// Active (undropped) attempts across all shards.
    int active_attempts() const;

    /// Milliseconds until the queue next needs attention (a deadline, a
    /// backoff expiry, or a lease aging into hedge eligibility) — the
    /// caller's poll timeout.  nullopt when nothing is scheduled (queue
    /// fully idle, done, or failed).
    std::optional<double> next_event_ms(TimePoint now) const;

    const LeaseQueueStats& stats() const { return stats_; }

private:
    struct Attempt {
        int attempt = 0;
        std::string worker;
        TimePoint issued;
        TimePoint deadline;
    };
    struct ShardEntry {
        shard::ShardManifest manifest;
        ShardState state = ShardState::Pending;
        std::vector<Attempt> active;  ///< Outstanding attempts (<= cap).
        int attempts_issued = 0;
        int failures = 0;         ///< Expiries + reported failures.
        int winner = -1;          ///< Accepted attempt (-1: none).
        TimePoint not_before{};   ///< Backoff gate while Pending.
        std::string last_error;
    };

    /// Handles the last active attempt of a Leased shard going away:
    /// requeue behind backoff, or Failed at the cap.
    void requeue_or_fail(ShardEntry& entry, TimePoint now);

    std::vector<ShardEntry> shards_;
    LeaseConfig config_;
    LeaseQueueStats stats_;
};

}  // namespace ff::coord
