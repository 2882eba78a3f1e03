#include "coord/queue.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.h"

namespace ff::coord {

namespace {

using Millis = std::chrono::duration<double, std::milli>;

/// Re-issue delay after a shard's first loss; each further loss doubles it.
constexpr double kFirstReissueMs = 200.0;

/// Concurrent attempts of one shard (first issue + one hedge).
constexpr int kMaxActivePerShard = 2;

TimePoint add_ms(TimePoint t, double ms) {
    return t + std::chrono::duration_cast<TimePoint::duration>(Millis(ms));
}

double ms_until(TimePoint now, TimePoint t) {
    return std::chrono::duration_cast<Millis>(t - now).count();
}

}  // namespace

double LeaseConfig::reissue_delay_ms(int losses) const {
    return std::min(std::ldexp(kFirstReissueMs, std::max(losses, 1) - 1), lease_ms);
}

LeaseQueue::LeaseQueue(std::vector<shard::ShardManifest> shards, const LeaseConfig& config)
    : config_(config) {
    shards_.reserve(shards.size());
    for (auto& manifest : shards) {
        ShardEntry entry;
        entry.manifest = std::move(manifest);
        shards_.push_back(std::move(entry));
    }
}

std::optional<Lease> LeaseQueue::acquire(const std::string& worker, TimePoint now) {
    // First choice: the lowest-index Pending shard whose backoff elapsed.
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        ShardEntry& entry = shards_[i];
        if (entry.state != ShardState::Pending) continue;
        if (entry.attempts_issued > 0 && now < entry.not_before) continue;
        Attempt attempt;
        attempt.attempt = entry.attempts_issued++;
        attempt.worker = worker;
        attempt.issued = now;
        attempt.deadline = add_ms(now, config_.lease_ms);
        entry.active.push_back(attempt);
        entry.state = ShardState::Leased;
        ++stats_.granted;
        Lease lease;
        lease.shard = static_cast<int>(i);
        lease.attempt = attempt.attempt;
        lease.manifest = entry.manifest;
        return lease;
    }
    // Otherwise hedge a straggler: a Leased shard under the attempt cap
    // whose newest attempt has been out for the hedge age.  Pick the one
    // with the oldest newest-attempt so the worst straggler is hedged first.
    const double hedge_age_ms = config_.hedge_age_ms();
    auto newest_issue = [](const ShardEntry& e) {
        TimePoint newest = e.active.front().issued;
        for (const Attempt& a : e.active) newest = std::max(newest, a.issued);
        return newest;
    };
    bool found = false;
    std::size_t best_index = 0;
    TimePoint best_newest{};
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        const ShardEntry& entry = shards_[i];
        if (entry.state != ShardState::Leased) continue;
        if (static_cast<int>(entry.active.size()) >= kMaxActivePerShard) continue;
        TimePoint newest = newest_issue(entry);
        if (ms_until(newest, now) < hedge_age_ms) continue;  // not old enough
        if (!found || newest < best_newest) {
            found = true;
            best_index = i;
            best_newest = newest;
        }
    }
    if (found) {
        ShardEntry& entry = shards_[best_index];
        Attempt attempt;
        attempt.attempt = entry.attempts_issued++;
        attempt.worker = worker;
        attempt.issued = now;
        attempt.deadline = add_ms(now, config_.lease_ms);
        entry.active.push_back(attempt);
        ++stats_.granted;
        ++stats_.hedges;
        Lease lease;
        lease.shard = static_cast<int>(best_index);
        lease.attempt = attempt.attempt;
        lease.hedge = true;
        lease.manifest = entry.manifest;
        return lease;
    }
    return std::nullopt;
}

bool LeaseQueue::heartbeat(int shard, int attempt, TimePoint now) {
    if (shard < 0 || shard >= shard_count()) return false;
    ShardEntry& entry = shards_[shard];
    for (Attempt& a : entry.active) {
        if (a.attempt == attempt) {
            a.deadline = add_ms(now, config_.lease_ms);
            return true;
        }
    }
    return false;
}

bool LeaseQueue::complete(int shard, int attempt) {
    if (shard < 0 || shard >= shard_count()) {
        throw common::Error("complete: shard " + std::to_string(shard) + " out of range");
    }
    ShardEntry& entry = shards_[shard];
    if (entry.state == ShardState::Done) {
        if (winner(shard) != attempt) ++stats_.duplicate_completions;
        return false;
    }
    // Leased, Pending (the attempt expired but the worker finished anyway)
    // or even Failed (a zombie rescued the shard after the retry cap).  Any
    // attempt's completion counts; files are byte-equal.
    if (entry.state == ShardState::Failed) --stats_.shards_failed;
    entry.state = ShardState::Done;
    entry.winner = attempt;
    entry.active.clear();
    entry.last_error.clear();
    ++stats_.completions;
    return true;
}

void LeaseQueue::extend_active(TimePoint now) {
    for (ShardEntry& entry : shards_) {
        for (Attempt& a : entry.active) a.deadline = add_ms(now, config_.lease_ms);
    }
}

int LeaseQueue::add_shard(const shard::ShardManifest& manifest) {
    ShardEntry entry;
    entry.manifest = manifest;
    shards_.push_back(std::move(entry));
    return static_cast<int>(shards_.size()) - 1;
}

void LeaseQueue::fail(int shard, int attempt, TimePoint now, const std::string& error) {
    if (shard < 0 || shard >= shard_count()) return;
    ShardEntry& entry = shards_[shard];
    auto it = std::find_if(entry.active.begin(), entry.active.end(),
                           [&](const Attempt& a) { return a.attempt == attempt; });
    if (it == entry.active.end()) return;  // stale: already expired/requeued
    entry.active.erase(it);
    ++entry.failures;
    ++stats_.worker_failures;
    entry.last_error = error;
    if (entry.state == ShardState::Leased && entry.active.empty()) {
        requeue_or_fail(entry, now);
    }
}

std::vector<LeaseQueue::LostAttempt> LeaseQueue::expire(TimePoint now) {
    std::vector<LostAttempt> lost;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        ShardEntry& entry = shards_[i];
        if (entry.state != ShardState::Leased) continue;
        for (auto it = entry.active.begin(); it != entry.active.end();) {
            if (it->deadline <= now) {
                lost.push_back({static_cast<int>(i), it->attempt, it->worker});
                ++entry.failures;
                ++stats_.expirations;
                entry.last_error = "lease expired (worker " + it->worker + ")";
                it = entry.active.erase(it);
            } else {
                ++it;
            }
        }
        if (entry.state == ShardState::Leased && entry.active.empty()) {
            requeue_or_fail(entry, now);
        }
    }
    return lost;
}

std::vector<LeaseQueue::LostAttempt> LeaseQueue::worker_lost(const std::string& worker,
                                                             TimePoint now) {
    std::vector<LostAttempt> lost;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        ShardEntry& entry = shards_[i];
        if (entry.state != ShardState::Leased) continue;
        for (auto it = entry.active.begin(); it != entry.active.end();) {
            if (it->worker == worker) {
                lost.push_back({static_cast<int>(i), it->attempt, it->worker});
                ++entry.failures;
                entry.last_error = "worker " + worker + " terminated";
                it = entry.active.erase(it);
            } else {
                ++it;
            }
        }
        if (entry.state == ShardState::Leased && entry.active.empty()) {
            requeue_or_fail(entry, now);
        }
    }
    return lost;
}

void LeaseQueue::requeue_or_fail(ShardEntry& entry, TimePoint now) {
    if (entry.failures >= config_.max_failures) {
        entry.state = ShardState::Failed;
        ++stats_.shards_failed;
        return;
    }
    entry.state = ShardState::Pending;
    entry.not_before = add_ms(now, config_.reissue_delay_ms(entry.failures));
    ++stats_.requeues;
}

bool LeaseQueue::all_done() const {
    for (const ShardEntry& entry : shards_) {
        if (entry.state != ShardState::Done) return false;
    }
    return true;
}

std::optional<int> LeaseQueue::winner(int shard) const {
    if (shard < 0 || shard >= shard_count()) return std::nullopt;
    const ShardEntry& entry = shards_[shard];
    if (entry.state != ShardState::Done || entry.winner < 0) return std::nullopt;
    return entry.winner;
}

ShardState LeaseQueue::state(int shard) const {
    if (shard < 0 || shard >= shard_count()) {
        throw common::Error("state: shard " + std::to_string(shard) + " out of range");
    }
    return shards_[shard].state;
}

const std::string& LeaseQueue::last_error(int shard) const {
    static const std::string empty;
    if (shard < 0 || shard >= shard_count()) return empty;
    return shards_[shard].last_error;
}

int LeaseQueue::attempts_issued(int shard) const {
    if (shard < 0 || shard >= shard_count()) return 0;
    return shards_[shard].attempts_issued;
}

int LeaseQueue::active_attempts() const {
    int n = 0;
    for (const ShardEntry& entry : shards_) n += static_cast<int>(entry.active.size());
    return n;
}

std::optional<double> LeaseQueue::next_event_ms(TimePoint now) const {
    std::optional<double> best;
    auto consider = [&best](double ms) {
        double clamped = std::max(0.0, ms);
        if (!best || clamped < *best) best = clamped;
    };
    const double hedge_age_ms = config_.hedge_age_ms();
    for (const ShardEntry& entry : shards_) {
        if (entry.state == ShardState::Pending && entry.attempts_issued > 0) {
            consider(ms_until(now, entry.not_before));  // backoff expiry
        } else if (entry.state == ShardState::Leased) {
            TimePoint newest = entry.active.front().issued;
            for (const Attempt& a : entry.active) {
                consider(ms_until(now, a.deadline));  // lease deadline
                newest = std::max(newest, a.issued);
            }
            if (static_cast<int>(entry.active.size()) < kMaxActivePerShard) {
                // The moment this lease ages into hedge eligibility.
                consider(ms_until(now, add_ms(newest, hedge_age_ms)));
            }
        }
    }
    return best;
}

}  // namespace ff::coord
